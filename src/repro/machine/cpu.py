"""MSP430 CPU executor.

Fetches and decodes real instruction words from simulated memory,
executes them with faithful flag semantics, and accounts unstalled
cycles and per-region instruction counts.

**Decode cache.** The first time an address executes, its instruction
is decoded (every word fetched through the bus) and compiled by
:func:`compile_instruction` into a closure with the operand modes, jump
condition and flag updates worked out; the entry also holds the retire
region and cycle cost. Later executions reuse the entry only while the
instruction's bytes in memory still equal the snapshot taken at decode,
so self-modifying code -- the heart of SwapRAM -- stays correct, and
they charge the same fetches through ``bus.account_fetch``.

**Probes.** Closures and :meth:`Cpu.step`/:meth:`Cpu.run` look up
``bus.read``/``write``/``fetch_word``/``account_fetch``/
``begin_instruction``, ``counters.record_*`` and ``cpu.step`` on the
instance at call time and never bind them at decode time, so observers
that replace those attributes (trace capture, ``TraceLog``, the obs
collector, fused counters) see every access, even when attached to a
warm decode cache.

**Native hooks** are the semihosting mechanism used to host the cache
runtimes: when the PC lands on a hooked address the registered callable
runs instead of a fetch. Hooks do all their memory traffic through the
bus and are responsible for charging their own modelled cycles and
setting the continuation PC.
"""

from functools import partial

from repro.isa.cycles import instruction_cycles
from repro.isa.encoding import EncodingError, decode_instruction
from repro.isa.instructions import (
    FORMAT_I_OPCODES,
    JUMP_CONDITIONS,
    JUMP_MNEMONICS,
    NO_WRITEBACK,
)
from repro.isa.operands import AddressingMode
from repro.isa.registers import PC, SP, SR
from repro.machine.bus import BusError

_FLAG_C = 0x0001
_FLAG_Z = 0x0002
_FLAG_N = 0x0004
_FLAG_V = 0x0100
#: SR with N, Z, C and V cleared (and the register kept to 16 bits).
_CLEAR_NZCV = 0xFFFF & ~(_FLAG_N | _FLAG_Z | _FLAG_C | _FLAG_V)
_CLEAR_NZC = 0xFFFF & ~(_FLAG_N | _FLAG_Z | _FLAG_C)


class SimulationError(Exception):
    """Execution fault (illegal opcode, runaway program, bus error)."""


class RunawayError(SimulationError):
    """The program exceeded its instruction budget without halting.

    A distinct subclass so watchdogs (the experiments runner, the fault
    harness) can turn runaways into first-class DNF/livelock outcomes
    while still treating every other :class:`SimulationError` as a
    crash.
    """


class Decoded:
    """One decode-cache entry: a compiled instruction and its retire cost."""

    __slots__ = (
        "snapshot",
        "length",
        "words",
        "next_pc",
        "execute",
        "region",
        "cycles",
        "instruction",
    )

    def __init__(self, pc, length, snapshot, instruction, region):
        #: The instruction's bytes at decode; a hit must still match them.
        self.snapshot = snapshot
        self.length = length
        self.words = length // 2
        self.next_pc = (pc + length) & 0xFFFF
        self.execute = compile_instruction(instruction)
        #: Region kind of the instruction's address: where it retires.
        self.region = region
        self.cycles = instruction_cycles(instruction)
        self.instruction = instruction


class Cpu:
    """A single MSP430 core attached to a :class:`~repro.machine.bus.Bus`."""

    def __init__(self, bus):
        self.bus = bus
        self.regs = [0] * 16
        self.hooks = {}
        self.instructions_retired = 0
        #: Addresses of the last three executed instructions, newest first.
        #: Cache runtimes use this to identify the branch that entered a
        #: stub (for block chaining) without any architectural support.
        self.pc_history = [0, 0, 0]
        self._decode_cache = {}  # pc -> Decoded

    def flag(self, name):
        bit = {"C": _FLAG_C, "Z": _FLAG_Z, "N": _FLAG_N, "V": _FLAG_V}[name]
        return 1 if self.regs[SR] & bit else 0

    # -- execution ------------------------------------------------------------------

    def step(self):
        """Execute one instruction (or one native hook). Returns False if halted."""
        bus = self.bus
        if bus.halted:
            return False
        regs = self.regs
        pc = regs[PC]

        hook = self.hooks.get(pc)
        if hook is not None:
            hook(self)
            return not bus.halted

        history = self.pc_history
        history[0], history[1], history[2] = pc, history[0], history[1]
        bus.begin_instruction()
        decoded = self._decode_cache.get(pc)
        if (
            decoded is not None
            and bus.memory.data[pc : pc + decoded.length] == decoded.snapshot
        ):
            bus.account_fetch(pc, decoded.words)
        else:
            decoded = self._decode(pc)

        regs[PC] = decoded.next_pc
        try:
            decoded.execute(regs, bus)
        except BusError as error:
            raise SimulationError(
                f"at PC={pc:#06x} ({decoded.instruction}): {error}"
            ) from error
        bus.counters.record_instruction(bus.attribution, decoded.region, decoded.cycles)
        self.instructions_retired += 1
        return not bus.halted

    def _decode(self, pc):
        """Decode-cache miss: fetch every word through the bus, compile."""
        bus = self.bus
        try:
            instruction, length = decode_instruction(bus.fetch_word, pc)
        except (EncodingError, BusError) as error:
            raise SimulationError(f"at PC={pc:#06x}: {error}") from error
        decoded = Decoded(
            pc,
            length,
            bytes(bus.memory.data[pc : pc + length]),
            instruction,
            bus.memory_map.kind_at(pc),
        )
        self._decode_cache[pc] = decoded
        return decoded

    def run(self, max_instructions=50_000_000):
        """Run until the program halts; guard against runaways."""
        remaining = max_instructions
        while self.step():
            remaining -= 1
            if remaining <= 0:
                raise RunawayError(
                    f"program did not halt within {max_instructions} instructions"
                )
        return self

    # -- checkpointing and power cycling (fault injection) --------------------

    def snapshot(self):
        """Architectural state only; the decode cache is a memoisation
        validated against memory bytes, so it never needs capturing."""
        return {
            "regs": list(self.regs),
            "pc_history": list(self.pc_history),
            "instructions_retired": self.instructions_retired,
        }

    def restore(self, snapshot):
        self.regs[:] = snapshot["regs"]
        self.pc_history[:] = snapshot["pc_history"]
        self.instructions_retired = snapshot["instructions_retired"]
        return self

    def reset(self, entry):
        """Power-on reset: registers cleared, PC at the entry vector.

        ``instructions_retired`` deliberately survives (it is host-side
        accounting, like the access counters); the decode cache is
        dropped so a rebooted machine decodes cold, exactly as accounted
        (the cached and uncached fetch paths charge identically).
        """
        for index in range(16):
            self.regs[index] = 0
        self.regs[PC] = entry & 0xFFFF
        self.pc_history[:] = [0, 0, 0]
        self._decode_cache.clear()
        return self


# -- instruction semantics ---------------------------------------------------------
#
# compile_instruction() turns an Instruction into ``execute(regs, bus)``.
# Operand readers, address locators and ALUs are closures built once per
# decode; an ALU maps ``(source, dest, sr)`` (or ``(value, sr)`` for
# single-operand ops) to ``(result, sr)`` with the flag updates applied.


def compile_instruction(instruction):
    """Compile *instruction* into ``execute(regs, bus)``.

    ``regs[PC]`` already holds the next instruction's address when the
    closure runs, as on the hardware. All memory traffic goes through
    *bus* methods looked up at call time.
    """
    name = instruction.mnemonic
    if name in JUMP_CONDITIONS:
        condition = JUMP_MNEMONICS[JUMP_CONDITIONS[name]]
        return _jump(condition, instruction.target & 0xFFFF)
    if name in FORMAT_I_OPCODES:
        return _format_i(instruction)
    if name in _UNARY_ALUS:
        return _unary(instruction)
    if name == "PUSH":
        return _push(instruction)
    if name == "CALL":
        return _call(instruction)
    if name == "RETI":
        return _reti
    raise SimulationError(f"unimplemented instruction: {name}")


def _width(byte):
    """``(mask, msb)`` of a byte or word operation."""
    return (0xFF, 0x80) if byte else (0xFFFF, 0x8000)


# Operands -------------------------------------------------------------------------


def _reader(operand, byte):
    """``read(regs, bus)``: a source operand's value, autoincrement included."""
    mode = operand.mode
    register = operand.register
    mask = _width(byte)[0]
    if mode is AddressingMode.REGISTER:
        return lambda regs, bus: regs[register] & mask
    if mode is AddressingMode.IMMEDIATE:
        value = operand.value & mask
        return lambda regs, bus: value
    if mode is AddressingMode.INDEXED:
        offset = operand.value
        return lambda regs, bus: bus.read((regs[register] + offset) & 0xFFFF, byte)
    if mode in (AddressingMode.ABSOLUTE, AddressingMode.SYMBOLIC):
        address = operand.value & 0xFFFF
        return lambda regs, bus: bus.read(address, byte)
    if mode is AddressingMode.INDIRECT:
        return lambda regs, bus: bus.read(regs[register] & 0xFFFF, byte)
    step = 2 if (not byte or register in (PC, SP)) else 1

    def read_autoinc(regs, bus):
        value = bus.read(regs[register] & 0xFFFF, byte)
        regs[register] = (regs[register] + step) & 0xFFFF
        return value

    return read_autoinc


def _locator(operand):
    """``locate(regs)``: the address a memory operand names (no side effects)."""
    mode = operand.mode
    register = operand.register
    if mode is AddressingMode.INDEXED:
        offset = operand.value
        return lambda regs: (regs[register] + offset) & 0xFFFF
    if mode in (AddressingMode.ABSOLUTE, AddressingMode.SYMBOLIC):
        address = operand.value & 0xFFFF
        return lambda regs: address
    if mode in (AddressingMode.INDIRECT, AddressingMode.AUTOINC):
        return lambda regs: regs[register] & 0xFFFF

    def no_address(regs):
        raise SimulationError(f"operand has no address: {operand}")

    return no_address


# Format I -------------------------------------------------------------------------


def _add_alu(byte, carry, subtract):
    """ADD/ADDC, or SUB/SUBC/CMP when *subtract*; *carry* takes the
    carry-in from C.

    Subtraction is addition of the one's complement with carry-in 1, as
    in the hardware, which is why C after a subtraction means "no
    borrow".
    """
    mask, msb = _width(byte)
    invert = mask if subtract else 0
    carry_in = 1 if subtract else 0

    def alu(source, dest, sr):
        source ^= invert
        total = source + dest + ((sr & _FLAG_C) if carry else carry_in)
        result = total & mask
        return result, (
            (sr & _CLEAR_NZCV)
            | (_FLAG_N if result & msb else 0)
            | (0 if result else _FLAG_Z)
            | (_FLAG_C if total > mask else 0)
            | (_FLAG_V if ~(source ^ dest) & (source ^ result) & msb else 0)
        )

    return alu


def _dadd_alu(byte):
    """DADD: BCD addition digit by digit; V is left alone."""
    _mask, msb = _width(byte)
    shifts = range(0, 8 if byte else 16, 4)

    def alu(source, dest, sr):
        carry = sr & _FLAG_C
        result = 0
        for shift in shifts:
            total = ((source >> shift) & 0xF) + ((dest >> shift) & 0xF) + carry
            carry = 1 if total > 9 else 0
            if carry:
                total -= 10
            result |= (total & 0xF) << shift
        return result, (
            (sr & _CLEAR_NZC)
            | (_FLAG_N if result & msb else 0)
            | (0 if result else _FLAG_Z)
            | (_FLAG_C if carry else 0)
        )

    return alu


def _and_alu(byte):
    """AND/BIT: C is set when the result is non-zero, V cleared."""
    mask, msb = _width(byte)

    def alu(source, dest, sr):
        result = source & dest & mask
        return result, (
            (sr & _CLEAR_NZCV)
            | (_FLAG_N if result & msb else 0)
            | (_FLAG_C if result else _FLAG_Z)
        )

    return alu


def _xor_alu(byte):
    """XOR: like AND, and V when both operands are negative."""
    mask, msb = _width(byte)

    def alu(source, dest, sr):
        result = (source ^ dest) & mask
        return result, (
            (sr & _CLEAR_NZCV)
            | (_FLAG_N if result & msb else 0)
            | (_FLAG_C if result else _FLAG_Z)
            | (_FLAG_V if source & dest & msb else 0)
        )

    return alu


def _bic_alu(byte):
    mask = _width(byte)[0]
    return lambda source, dest, sr: (dest & ~source & mask, sr)


def _bis_alu(byte):
    mask = _width(byte)[0]
    return lambda source, dest, sr: ((dest | source) & mask, sr)


#: Format I mnemonic -> ``factory(byte) -> alu`` (MOV needs no ALU).
_FORMAT_I_ALUS = {
    "ADD": partial(_add_alu, carry=False, subtract=False),
    "ADDC": partial(_add_alu, carry=True, subtract=False),
    "SUB": partial(_add_alu, carry=False, subtract=True),
    "SUBC": partial(_add_alu, carry=True, subtract=True),
    "CMP": partial(_add_alu, carry=False, subtract=True),
    "DADD": _dadd_alu,
    "AND": _and_alu,
    "BIT": _and_alu,
    "BIC": _bic_alu,
    "BIS": _bis_alu,
    "XOR": _xor_alu,
}


def _format_i(instruction):
    """Source read, then destination address and read, flags, write.

    XOR is the one operation that writes its destination before setting
    flags, which shows when the destination is SR itself.
    """
    name, byte = instruction.mnemonic, instruction.byte
    read = _reader(instruction.src, byte)
    dst = instruction.dst
    if name == "MOV":
        if dst.mode is AddressingMode.REGISTER:
            register = dst.register

            def execute(regs, bus):
                regs[register] = read(regs, bus)

        else:
            locate = _locator(dst)

            def execute(regs, bus):
                value = read(regs, bus)
                bus.write(locate(regs), value, byte)

        return execute

    alu = _FORMAT_I_ALUS[name](byte)
    mask = _width(byte)[0]
    if dst.mode is AddressingMode.REGISTER:
        register = dst.register
        if name in NO_WRITEBACK:

            def execute(regs, bus):
                regs[SR] = alu(read(regs, bus), regs[register] & mask, regs[SR])[1]

        elif name == "XOR":

            def execute(regs, bus):
                source = read(regs, bus)
                dest = regs[register] & mask
                regs[register] = alu(source, dest, 0)[0]
                regs[SR] = alu(source, dest, regs[SR])[1]

        else:

            def execute(regs, bus):
                result, regs[SR] = alu(
                    read(regs, bus), regs[register] & mask, regs[SR]
                )
                regs[register] = result

        return execute

    locate = _locator(dst)
    if name in NO_WRITEBACK:

        def execute(regs, bus):
            source = read(regs, bus)
            regs[SR] = alu(source, bus.read(locate(regs), byte), regs[SR])[1]

    elif name == "XOR":

        def execute(regs, bus):
            source = read(regs, bus)
            address = locate(regs)
            result, sr = alu(source, bus.read(address, byte), regs[SR])
            bus.write(address, result, byte)
            regs[SR] = sr

    else:

        def execute(regs, bus):
            source = read(regs, bus)
            address = locate(regs)
            result, regs[SR] = alu(source, bus.read(address, byte), regs[SR])
            bus.write(address, result, byte)

    return execute


# Format II ------------------------------------------------------------------------


def _shift_alu(byte, through_carry):
    """RRA (the sign bit stays), or RRC when *through_carry* (C enters
    the top bit); bit 0 leaves through C either way."""
    msb = _width(byte)[1]

    def alu(value, sr):
        if through_carry:
            top = msb if sr & _FLAG_C else 0
        else:
            top = value & msb
        result = (value >> 1) | top
        return result, (
            (sr & _CLEAR_NZCV)
            | (_FLAG_N if result & msb else 0)
            | (0 if result else _FLAG_Z)
            | (value & 1)  # C is bit 0
        )

    return alu


def _swpb_alu(_byte):
    return lambda value, sr: (((value & 0xFF) << 8) | ((value >> 8) & 0xFF), sr)


def _sxt_alu(_byte):
    def alu(value, sr):
        low = value & 0xFF
        result = low | (0xFF00 if low & 0x80 else 0)
        return result, (
            (sr & _CLEAR_NZCV)
            | (_FLAG_N if result & 0x8000 else 0)
            | (_FLAG_C if result else _FLAG_Z)
        )

    return alu


#: Read-modify-write Format II mnemonic -> (``factory(byte) -> alu``,
#: whether the write is a word whatever the byte bit says).
_UNARY_ALUS = {
    "RRA": (partial(_shift_alu, through_carry=False), False),
    "RRC": (partial(_shift_alu, through_carry=True), False),
    "SWPB": (_swpb_alu, True),
    "SXT": (_sxt_alu, True),
}


def _unary(instruction):
    """RRA/RRC/SWPB/SXT: the operand is read and written back in place
    (an autoincrement operand is not incremented)."""
    byte = instruction.byte
    factory, word_write = _UNARY_ALUS[instruction.mnemonic]
    alu = factory(byte)
    mask = _width(byte)[0]
    operand = instruction.src
    if operand.mode is AddressingMode.REGISTER:
        register = operand.register

        def execute(regs, bus):
            result, regs[SR] = alu(regs[register] & mask, regs[SR])
            regs[register] = result

        return execute

    locate = _locator(operand)
    write_byte = byte and not word_write

    def execute(regs, bus):
        address = locate(regs)
        result, regs[SR] = alu(bus.read(address, byte), regs[SR])
        bus.write(address, result, write_byte)

    return execute


def _push(instruction):
    read = _reader(instruction.src, instruction.byte)

    def execute(regs, bus):
        value = read(regs, bus)
        regs[SP] = (regs[SP] - 2) & 0xFFFF
        bus.write(regs[SP], value, False)

    return execute


def _call(instruction):
    read = _reader(instruction.src, False)

    def execute(regs, bus):
        target = read(regs, bus)
        if target & 1:
            raise SimulationError(f"CALL to odd address {target:#06x}")
        regs[SP] = (regs[SP] - 2) & 0xFFFF
        bus.write(regs[SP], regs[PC], False)
        regs[PC] = target

    return execute


def _reti(regs, bus):
    regs[SR] = bus.read(regs[SP])
    regs[SP] = (regs[SP] + 2) & 0xFFFF
    regs[PC] = bus.read(regs[SP])
    regs[SP] = (regs[SP] + 2) & 0xFFFF


# Jumps ----------------------------------------------------------------------------

#: Single-flag jumps: (SR bit tested, bit value that takes the jump).
_FLAG_JUMPS = {
    "JNE": (_FLAG_Z, 0),
    "JEQ": (_FLAG_Z, _FLAG_Z),
    "JNC": (_FLAG_C, 0),
    "JC": (_FLAG_C, _FLAG_C),
    "JN": (_FLAG_N, _FLAG_N),
}


def _jump(condition, target):
    """*condition* is the canonical mnemonic; *target* the byte address."""
    if condition == "JMP":

        def execute(regs, bus):
            regs[PC] = target

    elif condition in _FLAG_JUMPS:
        bit, taken = _FLAG_JUMPS[condition]

        def execute(regs, bus):
            if (regs[SR] & bit) == taken:
                regs[PC] = target

    else:
        # JL is taken when N != V, JGE when they agree (N is SR bit 2,
        # V bit 8).
        taken = 1 if condition == "JL" else 0

        def execute(regs, bus):
            sr = regs[SR]
            if ((sr >> 2) ^ (sr >> 8)) & 1 == taken:
                regs[PC] = target

    return execute

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

**Probes.** Closures and :meth:`Cpu.step` and the step loop look up
``bus.read``/``write``/``fetch_word``/``account_fetch``/
``begin_instruction``, ``counters.record_*`` and ``cpu.step`` on the
instance at call time and never bind them at decode time, so observers
that replace those attributes (trace capture, ``TraceLog``, the obs
collector, fused counters) see every access, even when attached to a
warm decode cache.

**Two tiers.** A machine with no such observer attached runs the block
tier instead: hot straight-line runs of instructions are compiled into
superblocks (see the section at the end of this module) that batch the
same accounting per block. Every other machine runs the step tier, one
:meth:`Cpu.step` per instruction, which is also the reference the
block tier is tested against.

**Native hooks** are the semihosting mechanism used to host the cache
runtimes: when the PC lands on a hooked address the registered callable
runs instead of a fetch. Hooks do all their memory traffic through the
bus and are responsible for charging their own modelled cycles and
setting the continuation PC.
"""

from functools import partial
from itertools import accumulate

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
from repro.machine.bus import Bus, BusError
from repro.machine.memory import RegionKind
from repro.machine.probe import unwrapped
from repro.machine.trace import AccessCounters, Attribution, block_slots

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
        "ends_block",
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
        #: Whether a superblock ends here: the instruction may replace
        #: the PC.
        self.ends_block = _ends_block(instruction)


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
        self._blocks = {}  # entry pc -> _Block
        self._entries = {}  # entry pc -> entries on the step path
        #: Hook addresses and FRAM timing the superblocks were formed
        #: against; a change drops them all.
        self._block_shape = None

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
        """Run until the program halts; guard against runaways.

        A plain machine (:meth:`_plain`) runs the block tier until it
        halts, comes within :data:`MAX_BLOCK` instructions of the budget,
        or a hook attaches a probe; the step loop runs the rest, and
        every probed machine.
        """
        remaining = max_instructions
        if self._plain():
            remaining = self._run_blocks(remaining)
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
        self._blocks.clear()
        self._entries.clear()
        return self

    # -- the block tier -------------------------------------------------------

    def _plain(self):
        """True when nothing observes single steps or accesses: ``step``
        and the bus and counter methods the step path looks up are the
        class's own, the bus and counters are exactly :class:`Bus` and
        :class:`AccessCounters` (no fuses), and no data cache is
        attached. Only then may accounting be batched per superblock."""
        bus = self.bus
        counters = bus.counters
        return (
            type(bus) is Bus
            and type(counters) is AccessCounters
            and bus.data_cache is None
            and unwrapped(self, "step", Cpu)
            and all(unwrapped(bus, name, Bus) for name in _BUS_PROBES)
            and all(
                unwrapped(counters, name, AccessCounters) for name in _COUNTER_PROBES
            )
        )

    def _sync_blocks(self):
        """Drop every superblock if the hooks or FRAM timing changed."""
        bus = self.bus
        cache = bus.fram_cache
        shape = (
            frozenset(self.hooks),
            cache.sets,
            cache.ways,
            cache.line_bytes,
            bus.wait_states,
            bus.contention_penalty,
        )
        if shape != self._block_shape:
            self._blocks.clear()
            self._block_shape = shape

    def _run_blocks(self, remaining):
        """The block tier's loop; returns the budget left when it stops.

        Hooks count as one step, as in :meth:`step`, and the plainness
        check is repeated after each one. A superblock is compiled on
        its :data:`HOT_ENTRIES`-th entry; until then its instructions
        run through :meth:`step`, except that a block the code cache
        already holds is taken on its second entry, the first with its
        instructions decoded.
        """
        bus = self.bus
        regs = self.regs
        hooks = self.hooks
        blocks = self._blocks
        entries = self._entries
        data = bus.memory.data
        self._sync_blocks()
        while remaining > MAX_BLOCK and not bus.halted:
            pc = regs[PC]
            hook = hooks.get(pc)
            if hook is not None:
                hook(self)
                remaining -= 1
                self._sync_blocks()
                if not self._plain():
                    break
                continue
            block = blocks.get(pc)
            if block is not None:
                if data[pc : block.end] == block.snapshot:
                    remaining -= block.execute(self)
                    continue
                del blocks[pc]
            count = entries.get(pc, 0) + 1
            if count >= HOT_ENTRIES or count == 2:
                block = self._form_block(pc, compile=count >= HOT_ENTRIES)
                if block is not None:
                    blocks[pc] = block
                    del entries[pc]
                    remaining -= block.execute(self)
                    continue
            entries[pc] = count
            remaining -= self._step_block()
        return remaining

    def _step_block(self):
        """Step one superblock's worth of instructions; returns the count."""
        regs = self.regs
        bus = self.bus
        hooks = self.hooks
        cache = self._decode_cache
        for steps in range(1, MAX_BLOCK + 1):
            pc = regs[PC]
            self.step()
            if bus.halted or cache[pc].ends_block or regs[PC] in hooks:
                break
        return steps

    def _form_block(self, start, compile=True):
        """Chain validated decode-cache entries from *start* into a
        superblock found in the code cache, or compiled when *compile*;
        None when there is none, or the entry itself is not decoded."""
        bus = self.bus
        data = bus.memory.data
        cache = self._decode_cache
        hooks = self.hooks
        chain = []
        pc = start
        while len(chain) < MAX_BLOCK:
            decoded = cache.get(pc)
            if decoded is None or data[pc : pc + decoded.length] != decoded.snapshot:
                break
            if chain and (pc in hooks or decoded.region is not chain[0].region):
                break
            chain.append(decoded)
            if decoded.ends_block or decoded.next_pc < pc:
                break
            pc = decoded.next_pc
        if not chain:
            return None
        end = start + sum(decoded.length for decoded in chain)
        fram_cache = bus.fram_cache
        key = (
            start,
            bytes(data[start:end]),
            chain[0].region,
            fram_cache.sets,
            fram_cache.ways,
            fram_cache.line_bytes,
            bus.wait_states,
            bus.contention_penalty,
        )
        block = _CODE_CACHE.pop(key, None)
        if block is None:
            if not compile:
                return None
            block = _Block(key, chain)
            if len(_CODE_CACHE) >= CODE_CACHE_SIZE:
                del _CODE_CACHE[next(iter(_CODE_CACHE))]
        _CODE_CACHE[key] = block
        return block


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


# -- the block tier: compiled superblocks ------------------------------------------
#
# A superblock is a run of decoded instructions from one entry PC, all in
# one memory region, ending at the first instruction that may replace the
# PC, before an address with a native hook, or at MAX_BLOCK instructions.
# _BlockCompiler turns it into one Python function that does what
# Cpu.step would do for each instruction -- fetch timing against the
# FRAM read cache, operand access, flags through the same ALUs, jumps --
# with stalls, cache hit/miss counts and data tallies kept in locals, and
# adds them, the fetch, instruction and cycle tallies, the retired count
# and the PC history to the machine once, on the way out. It returns the
# instructions it retired: all of them, or fewer when a store lands in
# the block's own bytes or goes to MMIO (the halt and debug ports),
# which ends the block after the storing instruction.

#: Entries through the step path before a superblock is compiled.
#: Compiling costs about 0.2 ms per instruction, as much as stepping it
#: some 70 times; at 16, the first run of a 20K-instruction generated
#: program was slower than on the step path alone.
HOT_ENTRIES = 32
#: Most instructions in one superblock.
MAX_BLOCK = 64
#: Compiled superblocks kept process-wide; each benchmark run, experiment
#: cell and difftest config builds a fresh board over the same code.
CODE_CACHE_SIZE = 1024

#: The bus and counter methods the step path looks up on the instance
#: at call time, which probes wrap.
_BUS_PROBES = ("read", "write", "fetch_word", "account_fetch", "begin_instruction")
_COUNTER_PROBES = ("record_fetch", "record_data", "record_instruction")


#: ``(start, bytes, region, FRAM-cache geometry, wait states,
#: contention penalty)`` -> _Block, oldest use first.
_CODE_CACHE = {}


def _lru_access(cache, ways, tag):
    """A FRAM read-cache read of *tag* in set *ways* that is not a hit on
    its most recently used line; tallies it on *cache*, True on a miss."""
    if tag in ways:
        ways.remove(tag)
        ways.append(tag)
        cache.hits += 1
        return False
    cache.misses += 1
    ways.append(tag)
    if len(ways) > cache.ways:
        del ways[0]
    return True


def _ends_block(instruction):
    """Whether *instruction* may replace the PC: a control transfer, or
    RRA/RRC/SWPB/SXT on the PC register."""
    operand = instruction.src
    return instruction.writes_pc() or (
        instruction.mnemonic in _UNARY_ALUS
        and operand.mode is AddressingMode.REGISTER
        and operand.register == PC
    )


class _Block:
    """One compiled superblock: its extent, its bytes at compile time and
    the generated ``execute(cpu)``, which returns the instructions it
    retired. Built from the code-cache key alone (the decode-cache
    entries only save decoding its bytes again), so boards share it."""

    __slots__ = ("end", "snapshot", "execute")

    def __init__(self, key, chain):
        start, snapshot = key[:2]
        self.end = start + len(snapshot)
        self.snapshot = snapshot
        self.execute = _BlockCompiler(key, chain).function()


class _BlockCompiler:
    """Python source for one superblock, in the step path's order.

    The generated function runs the instructions inside a ``while``
    loop that runs once, so every exit -- the end, an early ``break``
    after a store, or a raise -- reaches the one epilogue that flushes
    the run into the machine. Its locals: ``t`` is the FRAM touches of
    the current instruction (``Bus._fram_touches``); ``stalls``,
    ``hits``, ``misses``, ``invalidated`` and the SRAM/FRAM data read
    and write tallies accumulate until the epilogue; ``i`` names the
    instruction that raised. The generator also tracks what is known
    before run time: whether ``t`` is non-zero, and which tag each
    FRAM-cache set holds most recently, so a fetch from the line just
    fetched is a plain hit.
    """

    def __init__(self, key, chain):
        start, snapshot, region, sets, ways, line_bytes, wait_states, penalty = key
        self.start = start
        self.end = start + len(snapshot)
        self.fram_code = region is RegionKind.FRAM
        self.sets = sets
        self.ways = ways
        self.shift = line_bytes.bit_length() - 1
        self.wait_states = wait_states
        self.penalty = penalty
        self.chain = chain
        lengths = [decoded.length for decoded in chain[:-1]]
        self.pcs = tuple(start + offset for offset in accumulate(lengths, initial=0))
        self.namespace = {
            "SRAM": RegionKind.SRAM,
            "FRAM": RegionKind.FRAM,
            "BusError": BusError,
            "SimulationError": SimulationError,
            "lru_access": _lru_access,
            # Per instruction: its PC, next PC and text (for errors).
            "PCS": self.pcs,
            "NEXT_PCS": tuple(decoded.next_pc for decoded in chain),
            "INSTRUCTIONS": tuple(decoded.instruction for decoded in chain),
            # Prefix sums by instruction count: words fetched, cycles.
            "FETCHED": tuple(accumulate((d.words for d in chain), initial=0)),
            "CYCLES": tuple(accumulate((d.cycles for d in chain), initial=0)),
            # Per instructions begun: the newest (up to three) PCs.
            "HISTORY": tuple(
                self.pcs[max(0, begun - 3) : begun][::-1]
                for begun in range(len(chain) + 1)
            ),
            # Per attribution index: the tally slots a run adds to.
            "SLOTS": tuple(block_slots(who, region) for who in Attribution),
        }
        self.lines = []
        self.indent = " " * 12
        #: Set index -> tag known to be its most recently used line.
        self.mru = {}
        #: Whether ``t`` is non-zero: True, False, or None (unknown).
        self.touched = False
        # The instruction being compiled: its index and next PC, whether
        # ``i`` names it yet, and whether it stores.
        self.index = 0
        self.next_pc = 0
        self.marked = False
        self.stored = False

    def emit(self, *lines):
        self.lines.extend(self.indent + line for line in lines)

    def constant(self, name, value):
        self.namespace[name] = value
        return name

    def function(self):
        last = len(self.chain) - 1
        for index, (pc, decoded) in enumerate(zip(self.pcs, self.chain)):
            self.instruction(index, pc, decoded, index == last)
        source = "\n".join(
            [
                "def block(cpu):",
                "    regs = cpu.regs",
                "    bus = cpu.bus",
                "    data = bus.memory.data",
                "    kinds = bus._kinds",
                "    cache = bus.fram_cache",
                "    lines = cache._lines",
                "    t = stalls = hits = misses = invalidated = 0",
                "    sram_reads = sram_writes = fram_reads = fram_writes = 0",
                "    i = 0",
                "    error = None",
                "    try:",
                "        while True:  # once: break leaves the block",
                *self.lines,
                "    except BaseException as raised:",
                "        error = raised",
                "        retired = i",
                "        begun = i + 1",
                "        regs[0] = NEXT_PCS[i]",
                "    else:",
                "        begun = retired",
                "    bus._fram_touches = t",
                "    cache.hits += hits",
                "    cache.misses += misses",
                "    cache.invalidates += invalidated",
                "    counters = bus.counters",
                "    counters.stall_cycles += stalls",
                "    fetch, sram_read, sram_write, fram_read, fram_write, row, who = "
                "SLOTS[bus.attribution.index]",
                "    accesses = counters._accesses",
                "    accesses[fetch] += FETCHED[begun]",
                "    accesses[sram_read] += sram_reads",
                "    accesses[sram_write] += sram_writes",
                "    accesses[fram_read] += fram_reads",
                "    accesses[fram_write] += fram_writes",
                "    counters._instructions[row] += retired",
                "    counters._cycles[who] += CYCLES[retired]",
                "    cpu.instructions_retired += retired",
                "    history = cpu.pc_history",
                "    newest = HISTORY[begun]",
                "    if begun >= 3:",
                "        history[0], history[1], history[2] = newest",
                "    else:",
                "        history[:] = (newest + tuple(history))[:3]",
                "    if error is None:",
                "        return retired",
                "    if isinstance(error, BusError):",
                "        raise SimulationError(",
                '            f"at PC={PCS[i]:#06x} ({INSTRUCTIONS[i]}): {error}"',
                "        ) from error",
                "    raise error",
            ]
        )
        code = compile(source, f"<block {self.start:#06x}>", "exec")
        exec(code, self.namespace)
        return self.namespace["block"]

    # -- one instruction ------------------------------------------------------

    def instruction(self, index, pc, decoded, last):
        instruction = decoded.instruction
        self.next_pc = decoded.next_pc
        self.emit(f"# {pc:#06x}: {instruction}")
        words = decoded.words
        self.emit(f"t = {words if self.fram_code else 0}")
        self.touched = self.fram_code
        if self.fram_code:
            self.fetch(pc, words)
        self.index = index
        self.marked = False
        self.stored = False
        name = instruction.mnemonic
        if name in JUMP_CONDITIONS:
            self.jump(index, instruction)
        elif name in FORMAT_I_OPCODES:
            self.format_i(index, instruction)
        elif name in _UNARY_ALUS:
            self.unary(index, instruction)
        elif name == "PUSH":
            self.emit(f"s = {self.source(instruction.src, instruction.byte)}")
            self.emit("regs[1] = (regs[1] - 2) & 0xFFFF")
            self.write("regs[1]", "s", False)
        elif name == "CALL":
            source = self.source(instruction.src, False)
            self.mark()
            self.emit(
                f"s = {source}",
                "if s & 1:",
                '    raise SimulationError(f"CALL to odd address {s:#06x}")',
                "regs[1] = (regs[1] - 2) & 0xFFFF",
            )
            self.write("regs[1]", str(self.next_pc), False)
            self.emit("regs[0] = s")
        elif name == "RETI":
            self.read("regs[1] & 0xFFFF", False, "d")
            self.emit("regs[2] = d", "regs[1] = (regs[1] + 2) & 0xFFFF")
            self.read("regs[1] & 0xFFFF", False, "d")
            self.emit("regs[0] = d", "regs[1] = (regs[1] + 2) & 0xFFFF")
        else:
            raise SimulationError(f"unimplemented instruction: {name}")
        if last:
            if not decoded.ends_block:
                self.emit(f"regs[0] = {self.next_pc}")
            self.emit(f"retired = {index + 1}", "break")
        elif self.stored:
            self.emit(
                "if stop:",
                f"    regs[0] = {self.next_pc}",
                f"    retired = {index + 1}",
                "    break",
            )

    def jump(self, index, instruction):
        condition = JUMP_MNEMONICS[JUMP_CONDITIONS[instruction.mnemonic]]
        target = instruction.target & 0xFFFF
        if condition == "JMP":
            self.emit(f"regs[0] = {target}")
        elif condition in _FLAG_JUMPS:
            bit, taken = _FLAG_JUMPS[condition]
            self.emit(
                f"regs[0] = {target} if (regs[2] & {bit}) == {taken} "
                f"else {self.next_pc}"
            )
        else:
            execute = self.constant(f"jump{index}", compile_instruction(instruction))
            self.emit(f"regs[0] = {self.next_pc}", f"{execute}(regs, bus)")

    def format_i(self, index, instruction):
        name, byte = instruction.mnemonic, instruction.byte
        mask = 0xFF if byte else 0xFFFF
        source = self.source(instruction.src, byte)
        dst = instruction.dst
        if dst.mode is AddressingMode.REGISTER:
            register = dst.register
            if name == "MOV":
                self.emit(f"regs[{register}] = {source}")
                return
            alu = self.constant(f"alu{index}", _FORMAT_I_ALUS[name](byte))
            dest = f"{self.register(register)} & {mask}"
            if name in NO_WRITEBACK:
                self.emit(f"regs[2] = {alu}({source}, {dest}, regs[2])[1]")
            elif name == "XOR" and register == SR:
                self.emit(
                    f"s = {source}",
                    f"d = {dest}",
                    f"regs[2] = {alu}(s, d, 0)[0]",
                    f"regs[2] = {alu}(s, d, regs[2])[1]",
                )
            else:
                self.emit(
                    f"r, regs[2] = {alu}({source}, {dest}, regs[2])",
                    f"regs[{register}] = r",
                )
            return
        self.emit(f"s = {source}")
        if name == "MOV":
            self.write(self.locate(index, dst), "s", byte)
            return
        alu = self.constant(f"alu{index}", _FORMAT_I_ALUS[name](byte))
        self.emit(f"a = {self.locate(index, dst)}")
        self.read("a", byte, "d")
        if name in NO_WRITEBACK:
            self.emit(f"regs[2] = {alu}(s, d, regs[2])[1]")
        elif name == "XOR":
            self.emit(f"r, f = {alu}(s, d, regs[2])")
            self.write("a", "r", byte)
            self.emit("regs[2] = f")
        else:
            self.emit(f"r, regs[2] = {alu}(s, d, regs[2])")
            self.write("a", "r", byte)

    def unary(self, index, instruction):
        byte = instruction.byte
        factory, word_write = _UNARY_ALUS[instruction.mnemonic]
        alu = self.constant(f"alu{index}", factory(byte))
        operand = instruction.src
        if operand.mode is AddressingMode.REGISTER:
            register = operand.register
            mask = 0xFF if byte else 0xFFFF
            self.emit(
                f"r, regs[2] = {alu}({self.register(register)} & {mask}, regs[2])",
                f"regs[{register}] = r",
            )
            return
        self.emit(f"a = {self.locate(index, operand)}")
        self.read("a", byte, "d")
        self.emit(f"r, regs[2] = {alu}(d, regs[2])")
        self.write("a", "r", byte and not word_write)

    # -- operands -------------------------------------------------------------

    def register(self, register):
        """A register's value; the PC reads as the next instruction's
        address, as :meth:`Cpu.step` leaves it before executing."""
        return str(self.next_pc) if register == PC else f"regs[{register}]"

    def source(self, operand, byte):
        """Expression for a source operand's value (``_reader``)."""
        mode = operand.mode
        register = operand.register
        mask = 0xFF if byte else 0xFFFF
        if mode is AddressingMode.REGISTER:
            return f"{self.register(register)} & {mask}"
        if mode is AddressingMode.IMMEDIATE:
            return str(operand.value & mask)
        if mode is AddressingMode.INDEXED:
            address = f"({self.register(register)} + {operand.value}) & 0xFFFF"
        elif mode in (AddressingMode.ABSOLUTE, AddressingMode.SYMBOLIC):
            address = str(operand.value & 0xFFFF)
        else:
            address = f"{self.register(register)} & 0xFFFF"
        self.read(address, byte, "v")
        if mode is AddressingMode.AUTOINC:
            step = 2 if (not byte or register in (PC, SP)) else 1
            self.emit(f"regs[{register}] = (regs[{register}] + {step}) & 0xFFFF")
        return "v"

    def locate(self, index, operand):
        """Expression for a memory operand's address (``_locator``)."""
        mode = operand.mode
        register = operand.register
        if mode is AddressingMode.INDEXED:
            return f"({self.register(register)} + {operand.value}) & 0xFFFF"
        if mode in (AddressingMode.ABSOLUTE, AddressingMode.SYMBOLIC):
            return str(operand.value & 0xFFFF)
        if mode in (AddressingMode.INDIRECT, AddressingMode.AUTOINC):
            return f"{self.register(register)} & 0xFFFF"
        self.mark()
        return f"{self.constant(f'locate{index}', _locator(operand))}(regs)"

    # -- memory and FRAM timing -----------------------------------------------

    def mark(self):
        """Record the current instruction as the one that may raise."""
        if not self.marked:
            self.emit(f"i = {self.index}")
            self.marked = True

    def contention(self):
        """The contention stall of a FRAM access after the first one."""
        if not self.penalty or self.touched is False:
            return []
        if self.touched:
            return [f"stalls += {self.penalty}"]
        return ["if t:", f"    stalls += {self.penalty}"]

    def lookup(self, tag, index):
        """A FRAM read-cache read of line *tag* in set *index* (both
        expressions), as ``Bus._fram_read_timing`` does it: a hit on the
        most recently used line inline, the rest in :func:`_lru_access`."""
        lines = [f"ln = lines[{index}]", f"if ln and ln[-1] == {tag}:", "    hits += 1"]
        if self.wait_states:
            lines += [
                f"elif lru_access(cache, ln, {tag}):",
                f"    stalls += {self.wait_states}",
            ]
        else:
            lines += ["else:", f"    lru_access(cache, ln, {tag})"]
        return lines

    def fetch(self, pc, words):
        """Fetch timing of an instruction's *words*, all from FRAM."""
        if self.penalty and words > 1:
            self.emit(f"stalls += {self.penalty * (words - 1)}")
        known_hits = 0
        for address in range(pc, pc + 2 * words, 2):
            tag = address >> self.shift
            index = tag % self.sets
            if self.mru.get(index) == tag:
                known_hits += 1
                continue
            self.emit(*self.lookup(tag, index))
            self.mru[index] = tag
        if known_hits:
            self.emit(f"hits += {known_hits}")

    def read(self, address, byte, target):
        """A data read of *address* into *target* (``Bus.read``):
        SRAM and FRAM inline, everything else through the bus."""
        value = "data[x]" if byte else "data[x] | data[x + 1] << 8"
        self.mark()
        self.emit(
            f"x = {address}",
            "k = kinds[x]" if byte else "k = None if x & 1 else kinds[x]",
            "if k is SRAM:",
            "    sram_reads += 1",
            f"    {target} = {value}",
            "elif k is FRAM:",
            "    fram_reads += 1",
        )
        self.emit(*("    " + line for line in self.contention()))
        self.emit("    t += 1", "    g = x >> " + str(self.shift))
        self.emit(*("    " + line for line in self.lookup("g", f"g % {self.sets}")))
        self.emit(
            f"    {target} = {value}",
            "else:",
            f"    {target} = bus.read(x, {byte})",
        )
        self.after_data_access()

    def write(self, address, value, byte):
        """A data write (``Bus.write``); sets ``stop`` when the store
        lands in this block's bytes or goes through the bus (MMIO)."""
        if byte:
            store = ["data[x] = v & 0xFF"]
        else:
            store = ["data[x] = v & 0xFF", "data[x + 1] = v >> 8 & 0xFF"]
        inside = f"stop = {self.start} <= x < {self.end}"
        self.mark()
        self.emit(
            f"x = {address}",
            f"v = {value}",
            "k = kinds[x]" if byte else "k = None if x & 1 else kinds[x]",
            "if k is SRAM:",
            "    sram_writes += 1",
            *("    " + line for line in store),
            "    " + inside,
            "elif k is FRAM:",
            "    fram_writes += 1",
        )
        if self.wait_states:
            self.emit(f"    stalls += {self.wait_states}")
        self.emit(*("    " + line for line in self.contention()))
        self.emit(
            "    t += 1",
            f"    g = x >> {self.shift}",
            f"    ln = lines[g % {self.sets}]",
            "    if g in ln:",
            "        ln.remove(g)",
            "        invalidated += 1",
            *("    " + line for line in store),
            "    " + inside,
            "else:",
            f"    bus.write(x, v, {byte})",
            "    stop = True",
        )
        self.stored = True
        self.after_data_access()

    def after_data_access(self):
        """A data access may have touched FRAM and any cache set."""
        if self.touched is False:
            self.touched = None
        self.mru.clear()

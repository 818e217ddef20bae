"""Trace capture: run once through the real CPU, record the event stream.

A :class:`_Recorder` wraps the bus accounting entry points (the same
attach/detach idiom as :class:`repro.machine.tracelog.TraceLog`) and the
shared :class:`~repro.machine.trace.AccessCounters`, and rebuilds the
per-instruction structure the CPU's step loop implies:

``begin_instruction`` (application attribution only -- every hook charge
and runtime access happens inside ``bus.attributed(...)`` blocks and is
deliberately *not* recorded, because replay re-runs the real runtime)
opens a record at the current PC; ``fetch_word``/``account_fetch`` count
instruction words; ``read``/``write`` append data accesses (writes keep
their values); ``record_instruction`` closes the record with the
instruction's unstalled cycles.

For SwapRAM targets the recorder additionally tracks **activations** --
live executions of cacheable functions -- so instruction addresses
inside a cached copy (or an NVM fallback) are stored
*function-relative*. An activation opens when a call site reads the
function's redirection entry (the redirect value, or the post-hook PC on
a miss, is the base) and closes when the call site's ``SUB`` write
drops the function's active counter. This is exactly the state a replay
under a *different* policy or cache limit reconstructs for itself,
which is what makes one trace serve the whole ablation grid.

Block-cache targets record plain absolute addresses plus explicit hook
markers: chaining rewrites application branches in place (cache state
feeds back into the executed stream), so those traces only replay
against identical cache geometry -- the validity checker enforces it.
"""

from dataclasses import asdict

from repro.core.runtime import SwapRamRuntime
from repro.blockcache.runtime import BlockCacheRuntime
from repro.datacache.runtime import DataCacheRuntime
from repro.isa.registers import PC
from repro.machine.cpu import RunawayError
from repro.machine.probe import Patches
from repro.machine.trace import Attribution
from repro.replay.schema import (
    ACC_BYTE,
    ACC_VALUE,
    ACC_WRITE,
    build_document,
    image_sha256,
)

BASELINE = "baseline"
SWAPRAM = "swapram"
BLOCK = "block"
DATACACHE = "datacache"


class CaptureError(RuntimeError):
    """The run cannot be captured as a well-formed trace."""


def classify(target):
    """``(kind, board, runtime)`` for a built system or bare board."""
    runtime = getattr(target, "runtime", None)
    board = getattr(target, "board", target)
    if runtime is None:
        return BASELINE, board, None
    if isinstance(runtime, SwapRamRuntime):
        return SWAPRAM, board, runtime
    if isinstance(runtime, BlockCacheRuntime):
        return BLOCK, board, runtime
    if isinstance(runtime, DataCacheRuntime):
        # The data cache intercepts at the bus, below the recorder's
        # taps, so the recorded stream is the *application* stream --
        # baseline-shaped regardless of hits, fills or writebacks.
        return DATACACHE, board, runtime
    raise CaptureError(f"cannot capture system with runtime {type(runtime)!r}")


class _Recorder:
    """Bus/counter taps accumulating the canonical event stream."""

    def __init__(self, kind, board, runtime):
        self.kind = kind
        self.board = board
        self.bus = board.bus
        self.counters = board.counters
        self.records = []
        self.cache_window_writes = 0
        self._cur_acc = None
        self._cur_pc = 0
        self._cur_words = 0
        self._patches = None
        self._saved_hook = None

        self._swapram = kind == SWAPRAM
        if self._swapram:
            if len(runtime.meta.functions) > 0xFF:
                raise CaptureError("more than 255 cacheable functions")
            count = len(runtime.meta.functions)
            self._handler_addr = runtime.handler_addr
            self._redir_lo = runtime.redir_base
            self._redir_hi = runtime.redir_base + 2 * count
            self._active_lo = runtime.active_base
            self._active_hi = runtime.active_base + 2 * count
            self._sizes = [m.size for m in runtime.meta.functions]
            self._acts = [[] for _ in range(count)]
            self._cur_act = None  # (func_id, base, end)
            self._pending = None
            window_lo = board.linked.cache_base
            window_hi = board.bus.memory_map.sram.end
            self._window = (window_lo, window_hi)
        else:
            self._window = None
        self._hook_addr = None
        if kind == SWAPRAM:
            self._hook_addr = runtime.handler_addr
        elif kind == BLOCK:
            self._hook_addr = runtime.entry_addr
        # DATACACHE installs no CPU hook: its interception lives inside
        # bus.read/bus.write, *below* these taps, so nothing to wrap.

    # -- activation tracking (SwapRAM) -----------------------------------------

    def _push(self, func_id, base):
        self._acts[func_id].append((base, base + self._sizes[func_id]))

    def _pop(self, func_id):
        stack = self._acts[func_id]
        if stack:
            base, _end = stack.pop()
            cur = self._cur_act
            if cur is not None and cur[0] == func_id and cur[1] == base:
                self._cur_act = None

    def _map_pc(self, pc):
        """Resolve *pc* to (func_id, offset) within a live activation,
        or (-1, pc) when it executes position-independently."""
        cur = self._cur_act
        if cur is not None and cur[1] <= pc < cur[2]:
            return cur[0], pc - cur[1]
        for func_id, stack in enumerate(self._acts):
            for base, end in stack:
                if base <= pc < end:
                    self._cur_act = (func_id, base, end)
                    return func_id, pc - base
        self._cur_act = None
        return -1, pc

    # -- attachment ---------------------------------------------------------------

    def attach(self):
        bus = self.bus
        counters = self.counters
        regs = self.board.cpu.regs
        app = Attribution.APP
        recorder = self

        orig_begin = bus.begin_instruction
        orig_fetch = bus.fetch_word
        orig_account = bus.account_fetch
        orig_read = bus.read
        orig_write = bus.write
        orig_record = counters.record_instruction

        def begin_instruction():
            if bus.attribution is app:
                if recorder._cur_acc is not None:
                    raise CaptureError("instruction record left open")
                recorder._cur_pc = regs[PC]
                recorder._cur_words = 0
                recorder._cur_acc = []
            orig_begin()

        def fetch_word(address):
            value = orig_fetch(address)
            if bus.attribution is app and recorder._cur_acc is not None:
                recorder._cur_words += 1
            return value

        def account_fetch(address, words):
            orig_account(address, words)
            if bus.attribution is app and recorder._cur_acc is not None:
                recorder._cur_words += words

        swapram = self._swapram
        if swapram:
            redir_lo, redir_hi = self._redir_lo, self._redir_hi
            active_lo, active_hi = self._active_lo, self._active_hi
            handler = self._handler_addr
            window_lo, window_hi = self._window
            memory = bus.memory

        def read(address, byte=False):
            value = orig_read(address, byte)
            if bus.attribution is app:
                acc = recorder._cur_acc
                if acc is None:
                    raise CaptureError(
                        f"application read outside an instruction "
                        f"at {address:#06x}"
                    )
                acc.append((ACC_BYTE if byte else 0, address & 0xFFFF, 0))
                if swapram and redir_lo <= address < redir_hi:
                    func_id = (address - redir_lo) >> 1
                    if value == handler:
                        recorder._pending = func_id
                    else:
                        recorder._push(func_id, value)
            return value

        def write(address, value, byte=False):
            if bus.attribution is app:
                acc = recorder._cur_acc
                if acc is None:
                    raise CaptureError(
                        f"application write outside an instruction "
                        f"at {address:#06x}"
                    )
                masked = value & (0xFF if byte else 0xFFFF)
                flags = ACC_WRITE | ACC_VALUE | (ACC_BYTE if byte else 0)
                acc.append((flags, address & 0xFFFF, masked))
                if swapram:
                    if not byte and active_lo <= address < active_hi:
                        if masked < memory.read_word(address):
                            recorder._pop((address - active_lo) >> 1)
                    if window_lo <= address < window_hi:
                        recorder.cache_window_writes += 1
            orig_write(address, value, byte)

        def record_instruction(attribution, region_kind, cycles):
            orig_record(attribution, region_kind, cycles)
            if attribution is app:
                acc = recorder._cur_acc
                if acc is None:
                    raise CaptureError("instruction retired without a record")
                pc = recorder._cur_pc
                if swapram:
                    func, offset = recorder._map_pc(pc)
                else:
                    func, offset = -1, pc
                recorder.records.append(
                    (func, offset, recorder._cur_words, cycles, tuple(acc))
                )
                recorder._cur_acc = None

        self._patches = Patches(
            [
                (bus, "begin_instruction", begin_instruction),
                (bus, "fetch_word", fetch_word),
                (bus, "account_fetch", account_fetch),
                (bus, "read", read),
                (bus, "write", write),
                (counters, "record_instruction", record_instruction),
            ]
        )

        if self._hook_addr is not None:
            hooks = self.board.cpu.hooks
            orig_hook = hooks[self._hook_addr]
            self._saved_hook = orig_hook
            if swapram:

                def hook(cpu):
                    orig_hook(cpu)
                    if recorder._pending is not None:
                        func_id = recorder._pending
                        recorder._pending = None
                        recorder._push(func_id, cpu.regs[PC])

            else:

                def hook(cpu):
                    recorder.records.append(None)
                    orig_hook(cpu)

            hooks[self._hook_addr] = hook
        return self

    def detach(self):
        if self._patches is None:
            return self
        self._patches.undo()
        self._patches = None
        if self._saved_hook is not None:
            self.board.cpu.hooks[self._hook_addr] = self._saved_hook
            self._saved_hook = None
        return self


def capture_run(
    target,
    source,
    benchmark=None,
    scale=1,
    capture_config=None,
    max_instructions=50_000_000,
):
    """Run *target* (a built system or baseline board) under capture.

    Returns ``(TraceDocument, RunResult)``. *source* is the mini-C text
    the system was built from -- embedded in the header so a replay
    engine can rebuild the system without any out-of-band state.
    """
    from repro.tracing.runtime import current_recorder
    from repro.tracing.span import NULL_SPAN

    kind, board, runtime = classify(target)
    recorder = _Recorder(kind, board, runtime)
    tracing = current_recorder()
    recorder.attach()
    try:
        # Raw (det=False): captures are memoised per process, so whether
        # one happens depends on which units a worker served before.
        with (
            tracing.span(
                "replay.capture",
                det=False,
                attrs={"benchmark": benchmark, "system": kind},
            )
            if tracing
            else NULL_SPAN
        ):
            try:
                result = target.run(max_instructions=max_instructions)
            except RunawayError as error:
                raise CaptureError(f"run did not halt: {error}") from error
    finally:
        recorder.detach()

    config = dict(capture_config or {})
    if kind == SWAPRAM:
        policy = runtime.policy
        config.setdefault("policy", policy.name)
        config.setdefault("cache_base", policy.base)
        config.setdefault("cache_size", policy.size)
    elif kind == BLOCK:
        config.setdefault("cache_base", runtime.cache_base)
        config.setdefault("cache_size", runtime.num_slots * runtime.slot_bytes)
        config.setdefault("slot_bytes", runtime.slot_bytes)
        config.setdefault("num_slots", runtime.num_slots)
    elif kind == DATACACHE:
        for name, value in runtime.config.as_dict().items():
            config.setdefault(name, value)

    header = {
        "system": kind,
        "plan": board.linked.plan.name,
        "plan_config": asdict(board.linked.plan),
        "scale": scale,
        "benchmark": benchmark,
        "source": source,
        "frequency_mhz": board.frequency_mhz,
        "image_sha256": image_sha256(board.image),
        "capture_config": config,
        "capture_result": result.as_dict(),
        "capture_stats": (
            runtime.stats.as_dict() if runtime is not None else None
        ),
        "app_writes_cache_window": recorder.cache_window_writes > 0,
    }
    return build_document(header, recorder.records), result


def capture_source(
    source,
    system=SWAPRAM,
    plan_name="unified",
    frequency_mhz=24,
    scale=1,
    benchmark=None,
    policy="queue",
    cache_limit=None,
    slot_bytes=48,
    datacache=None,
    max_instructions=50_000_000,
):
    """Build a system for *source* and capture one run of it.

    Returns ``(TraceDocument, system, RunResult)`` so callers can also
    inspect the executed system's statistics directly. *datacache* is a
    :class:`~repro.datacache.cache.DataCacheConfig` (``system="datacache"``
    only; ``None`` builds the default configuration).
    """
    from repro.core import build_swapram
    from repro.core.policy import POLICIES
    from repro.blockcache import build_blockcache
    from repro.toolchain import PLANS, build_baseline

    plan = PLANS[plan_name]
    capture_config = {}
    if system == BASELINE:
        target = build_baseline(source, plan, frequency_mhz=frequency_mhz)
    elif system == DATACACHE:
        from repro.datacache.system import build_datacache

        target = build_datacache(
            source, plan, config=datacache, frequency_mhz=frequency_mhz
        )
    elif system == SWAPRAM:
        target = build_swapram(
            source,
            plan,
            frequency_mhz=frequency_mhz,
            policy_class=POLICIES[policy],
            cache_limit=cache_limit,
        )
        capture_config["cache_limit"] = cache_limit
    elif system == BLOCK:
        target = build_blockcache(
            source,
            plan,
            frequency_mhz=frequency_mhz,
            slot_bytes=slot_bytes,
            cache_limit=cache_limit,
        )
        capture_config["cache_limit"] = cache_limit
    else:
        raise ValueError(f"unknown system {system!r}")

    document, result = capture_run(
        target,
        source,
        benchmark=benchmark,
        scale=scale,
        capture_config=capture_config,
        max_instructions=max_instructions,
    )
    return document, target, result

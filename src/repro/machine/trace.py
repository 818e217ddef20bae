"""Memory-access and instruction accounting.

This is the reproduction's version of the paper's modified ``mspdebug``:
every access is categorised by

* **type** -- instruction fetch, data read, data write;
* **physical region** -- SRAM, FRAM, MMIO;
* **attribution** -- application code, cache-runtime (miss handler),
  memcpy, or startup code -- the categories of Figure 8.

"FRAM accesses" in Table 2 are logical accesses to FRAM addresses
(counted before the hardware cache), which is what these counters
report.
"""

from collections.abc import Mapping
from enum import Enum

from repro.machine.memory import RegionKind


class Attribution(Enum):
    """Who issued an access / executed an instruction (Figure 8 legend)."""

    APP = "app"
    RUNTIME = "runtime"
    MEMCPY = "memcpy"
    STARTUP = "startup"

    def __init__(self, value):
        #: Declaration position: the int flat counter tables index by.
        self.index = len(type(self)._member_names_)


FETCH = "fetch"
READ = "read"
WRITE = "write"

#: Access types in slot order (the innermost axis of the access table).
ACCESS_TYPES = (FETCH, READ, WRITE)
_TYPE_INDEX = {access_type: index for index, access_type in enumerate(ACCESS_TYPES)}

_KINDS = len(RegionKind)
_TYPES = len(ACCESS_TYPES)


def _table(keys, slot, rank):
    """``(key -> slot)`` and ``((slot, key), ...)`` in *rank* order."""
    slots = {key: slot(key) for key in keys}
    order = sorted(((slots[key], key) for key in keys), key=lambda item: rank(item[1]))
    return slots, tuple(order)


_ACCESS_SLOTS, _ACCESS_ORDER = _table(
    [
        (who, kind, access)
        for who in Attribution
        for kind in RegionKind
        for access in ACCESS_TYPES
    ],
    lambda key: (key[0].index * _KINDS + key[1].index) * _TYPES + _TYPE_INDEX[key[2]],
    lambda key: (key[0].value, key[1].value, key[2]),
)
_INSTRUCTION_SLOTS, _INSTRUCTION_ORDER = _table(
    [(who, kind) for who in Attribution for kind in RegionKind],
    lambda key: key[0].index * _KINDS + key[1].index,
    lambda key: (key[0].value, key[1].value),
)
_CYCLE_SLOTS, _CYCLE_ORDER = _table(
    list(Attribution), lambda key: key.index, lambda key: key.value
)


def block_slots(attribution, region_kind):
    """Flat-list indexes that compiled code adds a block run's tallies to:
    the fetch slot of *region_kind*; the SRAM read, SRAM write, FRAM read
    and FRAM write slots; the instruction slot; and the cycle slot."""
    return (
        _ACCESS_SLOTS[(attribution, region_kind, FETCH)],
        *(
            _ACCESS_SLOTS[(attribution, kind, access)]
            for kind in (RegionKind.SRAM, RegionKind.FRAM)
            for access in (READ, WRITE)
        ),
        _INSTRUCTION_SLOTS[(attribution, region_kind)],
        _CYCLE_SLOTS[attribution],
    )


class TallyView(Mapping):
    """A live, read-only mapping over one of the flat tally lists.

    Reads see every later increment: the view holds the list itself, and
    :meth:`AccessCounters.restore` overwrites lists in place. Keys are
    the enum tuples the tallies have always been reported by; a key never
    counted reads 0, like a ``Counter``. Iteration yields the non-zero
    tallies sorted by the keys' enum ``value`` (then access type), the
    order :meth:`EnergyModel.access_energy_nj` sums in -- changing it
    moves ``energy_nj`` in the last bit. Assignment raises, so a stray
    ``view[key] += n`` fails loudly; bulk additions go through
    :meth:`AccessCounters.add`.
    """

    __slots__ = ("_tallies", "_slots", "_order")

    def __init__(self, tallies, slots, order):
        self._tallies = tallies
        self._slots = slots
        self._order = order

    def __getitem__(self, key):
        return self._tallies[self._slots[key]]

    def __iter__(self):
        tallies = self._tallies
        return (key for slot, key in self._order if tallies[slot])

    def __len__(self):
        return sum(1 for count in self._tallies if count)

    def __contains__(self, key):
        slot = self._slots.get(key)
        return slot is not None and bool(self._tallies[slot])

    def items(self):
        """``(key, count)`` pairs of the non-zero tallies, in key order."""
        tallies = self._tallies
        return [(key, tallies[slot]) for slot, key in self._order if tallies[slot]]

    def __setitem__(self, *_args):
        raise TypeError(
            "counter views are read-only; record through AccessCounters "
            "(record_* or add)"
        )

    __delitem__ = __setitem__

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class AccessCounters:
    """Tallies of accesses, instructions and cycles by category.

    The tallies live in flat int-indexed lists -- attribution x region x
    access type, attribution x region, and attribution -- indexed by the
    enums' ``index`` attribute, so recording is list arithmetic with no
    hashing. ``accesses``, ``instructions`` and ``cycles`` are live
    :class:`TallyView` mappings over them, keyed as before.
    """

    def __init__(self):
        self._accesses = [0] * (len(Attribution) * _KINDS * _TYPES)
        self._instructions = [0] * (len(Attribution) * _KINDS)
        self._cycles = [0] * len(Attribution)
        self.stall_cycles = 0
        # (attribution, region_kind, type) -> words
        self.accesses = TallyView(self._accesses, _ACCESS_SLOTS, _ACCESS_ORDER)
        # (attribution, region_kind) -> count
        self.instructions = TallyView(
            self._instructions, _INSTRUCTION_SLOTS, _INSTRUCTION_ORDER
        )
        # attribution -> unstalled cycles
        self.cycles = TallyView(self._cycles, _CYCLE_SLOTS, _CYCLE_ORDER)

    # -- recording (hot path) -------------------------------------------------

    def record_fetch(self, attribution, region_kind, words):
        self._accesses[
            (attribution.index * _KINDS + region_kind.index) * _TYPES
        ] += words

    def record_data(self, attribution, region_kind, access_type, words=1):
        self._accesses[
            (attribution.index * _KINDS + region_kind.index) * _TYPES
            + _TYPE_INDEX[access_type]
        ] += words

    def record_instruction(self, attribution, region_kind, cycles):
        index = attribution.index
        self._instructions[index * _KINDS + region_kind.index] += 1
        self._cycles[index] += cycles

    def add(self, accesses=(), instructions=(), cycles=()):
        """Add bulk tallies, each a mapping keyed like the matching view.

        For callers that count locally and flush once (trace replay).
        Plain addition: no per-event hooks or fuses run.
        """
        for table, slots, delta in (
            (self._accesses, _ACCESS_SLOTS, accesses),
            (self._instructions, _INSTRUCTION_SLOTS, instructions),
            (self._cycles, _CYCLE_SLOTS, cycles),
        ):
            for key, count in dict(delta).items():
                table[slots[key]] += count

    # -- aggregate views -------------------------------------------------------

    def _sum_region(self, region_kind):
        accesses = self._accesses
        return sum(
            sum(accesses[start : start + _TYPES])
            for start in range(
                region_kind.index * _TYPES, len(accesses), _KINDS * _TYPES
            )
        )

    @property
    def fram_accesses(self):
        """All logical accesses (fetch + read + write) to FRAM addresses."""
        return self._sum_region(RegionKind.FRAM)

    @property
    def sram_accesses(self):
        return self._sum_region(RegionKind.SRAM)

    @property
    def code_accesses(self):
        return sum(self._accesses[_TYPE_INDEX[FETCH] :: _TYPES])

    @property
    def data_accesses(self):
        accesses = self._accesses
        return sum(accesses[_TYPE_INDEX[READ] :: _TYPES]) + sum(
            accesses[_TYPE_INDEX[WRITE] :: _TYPES]
        )

    @property
    def code_data_ratio(self):
        """Table 1's code/data access ratio."""
        data = self.data_accesses
        return self.code_accesses / data if data else float("inf")

    @property
    def total_instructions(self):
        return sum(self._instructions)

    @property
    def unstalled_cycles(self):
        return sum(self._cycles)

    @property
    def total_cycles(self):
        return sum(self._cycles) + self.stall_cycles

    def instructions_by_source(self):
        """Figure 8 breakdown: dynamic instructions by (attribution, region).

        Returns a dict with the paper's four categories::

            {"app_fram": n, "app_sram": n, "handler": n, "memcpy": n}

        Startup instructions are folded into ``app_fram`` (they execute
        once from FRAM and are negligible).
        """
        breakdown = {"app_fram": 0, "app_sram": 0, "handler": 0, "memcpy": 0}
        for (attribution, region_kind), count in self.instructions.items():
            if attribution is Attribution.RUNTIME:
                breakdown["handler"] += count
            elif attribution is Attribution.MEMCPY:
                breakdown["memcpy"] += count
            elif region_kind is RegionKind.SRAM:
                breakdown["app_sram"] += count
            else:
                breakdown["app_fram"] += count
        return breakdown

    def snapshot(self):
        """Deep copy for before/after comparisons."""
        copy = AccessCounters()
        copy.restore(self)
        return copy

    def restore(self, snapshot):
        """Overwrite this object's tallies in place from *snapshot*.

        Mutating in place (rather than swapping the object) keeps every
        holder of this counters instance -- the bus, an attached
        :class:`~repro.obs.timeline.Timeline`, metrics sessions, a bound
        tally view -- consistent across a restore.
        """
        self._accesses[:] = snapshot._accesses
        self._instructions[:] = snapshot._instructions
        self._cycles[:] = snapshot._cycles
        self.stall_cycles = snapshot.stall_cycles
        return self

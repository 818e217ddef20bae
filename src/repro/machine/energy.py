"""Energy model -- the oscilloscope substitute.

Energy is a linear model over the run's accounting::

    E = total_cycles x core_energy_per_cycle
      + fram_reads x fram_read_energy + fram_writes x fram_write_energy
      + sram_accesses x sram_access_energy

Default constants are shaped by the MSP430FR2355 datasheet at 3.0 V:
the active core draws ~120 uA/MHz (~0.36 nJ/cycle) and FRAM array
accesses cost several times an SRAM access -- which is why FRAM-resident
execution consumes over twice the power of SRAM execution (paper §2.2).
Absolute joules are not meaningful for the reproduction; the paper's
energy results are ratios at fixed frequency, which a consistent linear
model preserves.
"""

from dataclasses import dataclass

from repro.machine.memory import RegionKind
from repro.machine.trace import WRITE


@dataclass(frozen=True)
class EnergyModel:
    """Per-cycle and per-access energies in nanojoules."""

    core_nj_per_cycle: float = 0.36
    fram_read_nj: float = 0.30
    fram_write_nj: float = 0.50
    sram_access_nj: float = 0.05

    def access_energy_nj(self, counters):
        """Energy of all memory traffic recorded in *counters*.

        Summed in one fixed key order -- ``(attribution.value,
        kind.value, type)``, the order ``counters.accesses`` iterates in
        -- so the floating-point total is a pure function of the tallies,
        not of the order accesses happened to be recorded in. Float
        addition does not associate: any other order can move
        ``energy_nj`` in the last bit.
        """
        total = 0.0
        for (_attribution, kind, access_type), count in counters.accesses.items():
            if kind is RegionKind.SRAM:
                total += count * self.sram_access_nj
            elif kind is RegionKind.FRAM:
                if access_type == WRITE:
                    total += count * self.fram_write_nj
                else:  # fetches and data reads both read the array
                    total += count * self.fram_read_nj
        return total

    def energy_nj(self, counters):
        """Total run energy for *counters* (core + memory)."""
        core = counters.total_cycles * self.core_nj_per_cycle
        return core + self.access_energy_nj(counters)

    def breakdown_nj(self, counters):
        """Dict of energy components, for reports and tests."""
        return {
            "core": counters.total_cycles * self.core_nj_per_cycle,
            "memory": self.access_energy_nj(counters),
        }

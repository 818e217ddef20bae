"""Energy model: linearity and the paper's qualitative properties."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import EnergyModel
from repro.machine.memory import RegionKind
from repro.machine.trace import (
    ACCESS_TYPES,
    WRITE,
    AccessCounters,
    Attribution,
)
from repro.toolchain import PLANS, build_baseline

KERNEL = """
int work[16];
int main(void) {
    int acc = 0;
    for (int i = 0; i < 16; i++) work[i] = i * 3;
    for (int pass = 0; pass < 8; pass++) {
        for (int i = 0; i < 16; i++) acc += work[i];
    }
    __debug_out(acc & 0xFFFF);
    return 0;
}
"""


def run(plan, frequency):
    return build_baseline(KERNEL, PLANS[plan], frequency_mhz=frequency).run()


def test_fram_execution_costs_more_energy_than_sram():
    unified = run("unified", 8)
    all_sram = run("all_sram", 8)
    assert unified.energy_nj > 1.3 * all_sram.energy_nj


def test_energy_components_sum():
    model = EnergyModel()
    result = run("unified", 24)
    breakdown = model.breakdown_nj(result.counters)
    assert abs(
        breakdown["core"] + breakdown["memory"] - model.energy_nj(result.counters)
    ) < 1e-6
    assert breakdown["core"] > 0 and breakdown["memory"] > 0


def test_zero_cost_model_counts_nothing():
    free = EnergyModel(
        core_nj_per_cycle=0, fram_read_nj=0, fram_write_nj=0, sram_access_nj=0
    )
    result = run("unified", 24)
    assert free.energy_nj(result.counters) == 0


def test_access_energy_scales_with_constants():
    base = EnergyModel()
    double = EnergyModel(
        fram_read_nj=2 * base.fram_read_nj,
        fram_write_nj=2 * base.fram_write_nj,
        sram_access_nj=2 * base.sram_access_nj,
    )
    result = run("unified", 24)
    assert abs(
        double.access_energy_nj(result.counters)
        - 2 * base.access_energy_nj(result.counters)
    ) < 1e-6


def test_runtime_scales_inversely_with_frequency_for_sram_code():
    slow = run("all_sram", 8)
    fast = run("all_sram", 24)
    # No wait states in SRAM: time ratio equals the clock ratio.
    assert abs(slow.runtime_us / fast.runtime_us - 3.0) < 0.01


def test_fram_wait_states_erode_frequency_gains():
    slow = run("unified", 8)
    fast = run("unified", 24)
    assert 1.0 < slow.runtime_us / fast.runtime_us < 3.0


def test_integral_accounting_matches_post_hoc_model():
    """The fused counters' incremental energy mirror is exact.

    The fault harness charges energy access-by-access (to blow energy
    fuses mid-run); the reporting path computes it after the fact from
    the aggregate counters. The two integrals must agree to rounding.
    """
    from repro.machine import FusedAccessCounters

    counters = FusedAccessCounters()
    board = build_baseline(
        KERNEL, PLANS["unified"], frequency_mhz=24, counters=counters
    )
    result = board.run()
    model = counters.energy_model
    assert counters.access_nj == pytest.approx(
        model.access_energy_nj(counters), rel=1e-9
    )
    assert counters.energy_nj == pytest.approx(result.energy_nj, rel=1e-9)


def test_breakdown_components_are_nonnegative_and_complete():
    model = EnergyModel()
    result = run("unified", 24)
    breakdown = model.breakdown_nj(result.counters)
    assert set(breakdown) == {"core", "memory"}
    assert all(value >= 0 for value in breakdown.values())


def test_write_heavy_code_pays_fram_write_premium():
    model = EnergyModel()
    writes = build_baseline(
        """
        int sink[64];
        int main(void) {
            for (int pass = 0; pass < 8; pass++)
                for (int i = 0; i < 64; i++) sink[i] = i;
            __debug_out(1);
            return 0;
        }
        """,
        PLANS["unified"],
    ).run()
    # Same store loop against a free-write model: the premium is real.
    free_writes = EnergyModel(fram_write_nj=0.0)
    assert model.energy_nj(writes.counters) > free_writes.energy_nj(writes.counters)


def sorted_counter_energy(model, accesses):
    """The formula over a ``Counter`` of access tallies that energy totals
    were first computed with: terms added in sorted key order."""
    total = 0.0
    for (attribution, kind, access_type), count in sorted(
        accesses.items(),
        key=lambda item: (item[0][0].value, item[0][1].value, item[0][2]),
    ):
        if kind is RegionKind.SRAM:
            total += count * model.sram_access_nj
        elif kind is RegionKind.FRAM:
            if access_type == WRITE:
                total += count * model.fram_write_nj
            else:
                total += count * model.fram_read_nj
    return total


_records = st.lists(
    st.tuples(
        st.sampled_from(list(Attribution)),
        st.sampled_from(list(RegionKind)),
        st.sampled_from(ACCESS_TYPES),
        st.integers(min_value=0, max_value=10**7),
    ),
    max_size=60,
)
_energy = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(records=_records, fram_read=_energy, fram_write=_energy, sram=_energy)
def test_access_energy_sums_in_the_sorted_key_order(
    records, fram_read, fram_write, sram
):
    """Float addition does not associate, so the flat counters must add
    energy terms in exactly the order the Counter-keyed formula did."""
    model = EnergyModel(
        fram_read_nj=fram_read, fram_write_nj=fram_write, sram_access_nj=sram
    )
    counters = AccessCounters()
    reference = Counter()
    for attribution, kind, access_type, words in records:
        counters.record_data(attribution, kind, access_type, words)
        reference[(attribution, kind, access_type)] += words
    assert model.access_energy_nj(counters) == sorted_counter_energy(
        model, reference
    )

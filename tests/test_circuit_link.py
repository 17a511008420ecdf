"""The 10-stage SRLR link: propagation, transmission, energy."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.circuit import SRLRLink, robust_design
from repro.circuit.prbs import PrbsGenerator
from repro.tech import GlobalCorner, corner_sample, tech_45nm_soi
from repro.units import FJ, GBPS, PS

TECH = tech_45nm_soi()
T_BIT = 1.0 / 4.1e9


def test_pulse_propagates_through_all_stages(robust_link):
    records = robust_link.propagate_pulse()
    assert len(records) == 10
    assert all(r.fired for r in records)


def test_swing_stays_low_along_link(robust_link):
    records = robust_link.propagate_pulse()
    for r in records:
        assert 0.1 < r.in_swing < 0.5  # genuinely low-swing vs 0.8 V rail


def test_latency_scales_with_length(robust_link):
    lat10 = robust_link.latency()
    short = SRLRLink(robust_design(n_stages=5))
    assert lat10 > short.latency() > 0
    # ~200 ps/mm: between one and four wire time constants per segment.
    assert 1000 * PS < lat10 < 4000 * PS


def test_transmit_error_free_at_41g(robust_link, stress_pattern):
    result = robust_link.transmit(stress_pattern, T_BIT)
    assert result.ok
    assert result.received == stress_pattern
    assert not result.stuck


def test_transmit_all_taps_agree_when_clean(robust_link, stress_pattern):
    result = robust_link.transmit(stress_pattern, T_BIT)
    # Multicast-for-free: every intermediate tap carries the same bits.
    for tap in result.tap_bits:
        assert tap == stress_pattern


def test_transmit_fails_when_overclocked(robust_link, stress_pattern):
    result = robust_link.transmit(stress_pattern, 1.0 / 9e9)
    assert result.n_errors > 0
    # Both overspeed mechanisms are real: dropped 1s (reset dead time)
    # and spurious 1s (residual ISI at the shrunken unit interval).
    drops = sum(1 for s, g in zip(result.sent, result.received) if s == 1 and g == 0)
    assert drops > 0


def test_max_data_rate_bracket(robust_link, stress_pattern):
    rate = robust_link.max_data_rate(stress_pattern)
    assert 4.1 * GBPS <= rate <= 6.0 * GBPS
    assert robust_link.transmit(stress_pattern, 1.0 / rate).ok


def test_max_data_rate_zero_for_broken_link(stress_pattern):
    broken = dataclasses.replace(robust_design(), m2_vth_offset=0.25)
    link = SRLRLink(broken)
    assert link.max_data_rate(stress_pattern) == 0.0


def test_stuck_link_reads_all_ones(stress_pattern):
    broken = dataclasses.replace(robust_design(), m2_vth_offset=0.25)
    link = SRLRLink(broken)
    result = link.transmit(stress_pattern, T_BIT)
    assert result.stuck
    assert all(b == 1 for b in result.received)
    assert not result.ok


def test_energy_breakdown_structure(robust_link):
    e = robust_link.energy_per_pulse()
    assert set(e) == {"wire", "internal", "total"}
    assert e["total"] == pytest.approx(e["wire"] + e["internal"])
    assert e["wire"] > e["internal"] > 0  # wire-dominated, as the paper argues


def test_energy_headline_ballpark(robust_link):
    # 0.5 activity * total / 10 mm should land near 40.4 fJ/bit/mm.
    per_bit_mm = 0.5 * robust_link.energy_per_pulse()["total"] / FJ / 10
    assert 30 < per_bit_mm < 50


def test_transmit_energy_tracks_ones_density(robust_link):
    sparse = robust_link.transmit([1] + [0] * 31, T_BIT)
    dense = robust_link.transmit([1, 0] * 16, T_BIT)
    assert dense.energy > 2 * sparse.energy
    assert sparse.energy > 0


def test_transmit_zero_pattern_costs_nothing(robust_link):
    result = robust_link.transmit([0] * 16, T_BIT)
    assert result.ok
    assert result.energy == 0.0


def test_noise_causes_errors_near_the_floor(stress_pattern):
    # Crank noise far above margin: errors must appear.
    link = SRLRLink(robust_design())
    noisy = link.transmit(stress_pattern, T_BIT, noise_sigma=0.15,
                          rng=np.random.default_rng(1))
    assert noisy.n_errors > 0


def test_noise_reproducible_with_seeded_rng(robust_link, stress_pattern):
    r1 = robust_link.transmit(stress_pattern, T_BIT, noise_sigma=0.02,
                              rng=np.random.default_rng(5))
    r2 = robust_link.transmit(stress_pattern, T_BIT, noise_sigma=0.02,
                              rng=np.random.default_rng(5))
    assert r1.received == r2.received


def test_weak_global_corner_breaks_fixed_reference_link(stress_pattern):
    from repro.circuit.bias import fixed_for_amplitude
    from repro.circuit.srlr import _nmos_amplitude_for_swing
    from repro.circuit import NMOSDriver

    amp = _nmos_amplitude_for_swing(TECH, 0.30, NMOSDriver(), 1e-3)
    fixed = dataclasses.replace(
        robust_design(), swing_reference=fixed_for_amplitude(TECH, amp)
    )
    weak = corner_sample(TECH, GlobalCorner("W", 0.05, 0.05))
    result = SRLRLink(fixed, weak).transmit(stress_pattern, T_BIT)
    assert result.n_errors > 0  # uncompensated weak corner fails...
    robust_result = SRLRLink(robust_design(), weak).transmit(stress_pattern, T_BIT)
    assert robust_result.n_errors <= result.n_errors  # ...adaptive helps


def test_transmit_validation(robust_link):
    with pytest.raises(ConfigurationError):
        robust_link.transmit([0, 1], 0.0)
    with pytest.raises(ConfigurationError):
        robust_link.transmit([0, 2], T_BIT)
    with pytest.raises(ConfigurationError):
        robust_link.transmit([0, 1], T_BIT, noise_sigma=-1.0)
    with pytest.raises(ConfigurationError):
        robust_link.max_data_rate([1, 0], rate_lo=2e9, rate_hi=1e9)


@settings(max_examples=10, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=4, max_size=40))
def test_transmit_roundtrip_property(robust_link, bits):
    """Any pattern transmits error-free at the rated speed at TT."""
    result = robust_link.transmit(bits, T_BIT)
    assert result.received == bits


def test_prbs15_long_run_error_free(robust_link):
    bits = PrbsGenerator(15).bits(2000)
    assert robust_link.transmit(bits, T_BIT).ok


# --- per-die energy pins ---------------------------------------------------------------
#
# Bitwise pins of the energy accounting on sampled Fig. 6 dies (swing
# 0.28 V, default stress pattern at 4.1 Gb/s).  They equal recomputing
# each repeater's internal energy per fired pulse, so a caching or
# reordering change in the per-bit path that moves them by one ulp fails
# here.  Columns: transmit energy, then energy_per_pulse() wire /
# internal / total.

ENERGY_PINS = {
    ("robust", 1): (  # clean die
        "0x1.40f35db6a5c4dp-34",
        "0x1.7c29140285930p-41",
        "0x1.afe2e4d17dc66p-43",
        "0x1.e821cd36e504ap-41",
    ),
    ("robust", 6): (  # the isolated pulse collapses mid-link
        "0x1.0fed792385c2bp-35",
        "0x1.0a35bc7bfeda0p-43",
        "0x1.58272e218940ap-46",
        "0x1.353aa24030021p-43",
    ),
    ("robust", 12): (
        "0x1.46a6eb7a34db3p-34",
        "0x1.84e90102dba4cp-41",
        "0x1.b0197de3996e6p-43",
        "0x1.f0ef607bc2006p-41",
    ),
    ("straightforward", 0): (
        "0x1.4e10a66fc7505p-35",
        "0x1.a8269a3592363p-43",
        "0x1.8ad8bd8108d45p-45",
        "0x1.056e64caea35ap-42",
    ),
    ("straightforward", 6): (  # stuck die
        "0x0.0p+0",
        "0x1.0a5bed17e8fa9p-44",
        "0x0.0p+0",
        "0x1.0a5bed17e8fa9p-44",
    ),
    ("straightforward", 11): (  # collapses at the first stage
        "0x1.ff8145ce57a74p-37",
        "0x1.e0f42d3c82885p-45",
        "0x0.0p+0",
        "0x1.e0f42d3c82885p-45",
    ),
}


@pytest.fixture(scope="module")
def fig6_designs():
    from repro.circuit import straightforward_design

    return {
        "robust": robust_design(nominal_swing=0.28),
        "straightforward": straightforward_design(nominal_swing=0.28),
    }


@pytest.mark.parametrize("die", sorted(ENERGY_PINS), ids=lambda d: f"{d[0]}-{d[1]}")
def test_energy_bitwise_pinned_on_sampled_dies(fig6_designs, die):
    from repro.circuit.srlr import StageFailure
    from repro.mc.engine import default_stress_pattern
    from repro.tech.variation import monte_carlo_sample

    name, seed = die
    design = fig6_designs[name]
    link = SRLRLink(design, monte_carlo_sample(TECH, seed))
    result = link.transmit(default_stress_pattern(), T_BIT)
    breakdown = link.energy_per_pulse()
    got = (
        result.energy,
        breakdown["wire"],
        breakdown["internal"],
        breakdown["total"],
    )
    assert tuple(x.hex() for x in got) == ENERGY_PINS[die]
    failures = {r.failure for r in link.propagate_pulse()}
    if die == ("straightforward", 6):
        assert result.stuck
    if die in {("robust", 6), ("straightforward", 11)}:
        assert StageFailure.COLLAPSED in failures

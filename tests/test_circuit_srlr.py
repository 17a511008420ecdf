"""The SRLR stage model."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.circuit import SRLRStage, StageFailure, robust_design
from repro.circuit.srlr import DEFAULT_NOMINAL_SWING
from repro.tech import GlobalCorner, corner_sample, tech_45nm_soi
from repro.units import PS

TECH = tech_45nm_soi()


@pytest.fixture(scope="module")
def stage(robust, nominal):
    return SRLRStage(robust, 0, nominal)


def test_standby_is_vdd_minus_keeper_vth(stage, robust):
    expected = TECH.vdd - (TECH.vth_n + robust.m2_vth_offset)
    assert stage.v_standby == pytest.approx(expected)


def test_standby_above_inverter_threshold(stage):
    # The paper's explicit constraint: X's standby voltage must stay above
    # the INV threshold or the stage fires continuously.
    assert stage.dv_trip > 0
    assert not stage.is_stuck


def test_keeper_current_weak_but_nonzero(stage):
    assert 1e-9 < stage.keeper_current < 5e-6


def test_net_current_has_sensitivity_floor(stage):
    # Below the floor the keeper wins; above it M1 wins, increasingly.
    assert stage.net_discharge_current(0.05) < 0
    assert stage.net_discharge_current(DEFAULT_NOMINAL_SWING) > 0


def test_trip_time_decreases_with_swing(stage):
    swings = [0.26, 0.28, 0.30, 0.34]
    trips = [stage.trip_time(s) for s in swings]
    assert all(a > b for a, b in zip(trips, trips[1:]))
    assert trips[-1] > 0


def test_trip_time_infinite_below_floor(stage):
    assert stage.trip_time(0.02) == float("inf")
    assert stage.trip_time(-0.1) == float("inf")


def test_rise_lag_grows_as_swing_shrinks(stage):
    assert stage.rise_lag(0.27) > stage.rise_lag(0.33)


def test_transfer_fires_at_operating_point(stage):
    out = stage.transfer(DEFAULT_NOMINAL_SWING, 180 * PS)
    assert out.fired
    assert out.failure is StageFailure.NONE
    assert 50 * PS < out.out_width < 250 * PS
    assert out.launch is not None
    assert out.stage_delay > 0


def test_transfer_too_weak_below_floor(stage):
    out = stage.transfer(0.05, 180 * PS)
    assert not out.fired
    assert out.failure is StageFailure.TOO_WEAK


def test_transfer_too_weak_with_short_dwell(stage):
    # Even a healthy swing fails if the pulse is gone before X trips.
    out = stage.transfer(0.27, 1 * PS)
    assert not out.fired
    assert out.failure is StageFailure.TOO_WEAK


@pytest.mark.parametrize("swing", [-0.1, 0.02, 0.05, 0.2, 0.27, 0.3, 0.34])
@pytest.mark.parametrize("dwell", [1 * PS, 60 * PS, 180 * PS, float("inf")])
def test_transfer_agrees_with_trip_time_and_rise_lag(stage, swing, dwell):
    """transfer inlines both times over one current: same floats, and an
    infinite dwell below the floor still reaches the (collapsed) width
    check with infinite times."""
    out = stage.transfer(swing, dwell)
    t_trip = stage.trip_time(swing)
    if t_trip > dwell:
        assert out.failure is StageFailure.TOO_WEAK
        return
    t_rise = stage.rise_lag(swing) + stage.t_intrinsic_rise
    assert out.t_trip == t_trip
    assert out.out_width == max(stage.wx - (t_rise - stage.t_fall), 0.0)
    if out.fired:
        assert out.stage_delay == t_trip + t_rise
    else:
        assert out.failure is StageFailure.COLLAPSED
        assert out.stage_delay == float("inf")


def test_transfer_disabled_stage_never_fires(robust, nominal):
    gated = SRLRStage(robust, 0, nominal, enabled=False)
    out = gated.transfer(0.35, 200 * PS)
    assert not out.fired


def test_stuck_stage_detected(robust):
    # Push the keeper threshold way up: standby collapses below V_M.
    broken = dataclasses.replace(robust, m2_vth_offset=0.25)
    stage = SRLRStage(broken, 0, corner_sample(TECH, GlobalCorner("TT", 0, 0)))
    assert stage.is_stuck
    out = stage.transfer(0.3, 200 * PS)
    assert out.failure is StageFailure.STUCK


def test_collapsed_output_width_detected(robust, nominal):
    # A huge minimum width makes any regenerated pulse "collapsed".
    strict = dataclasses.replace(robust, min_output_width=1e-9)
    stage = SRLRStage(strict, 0, nominal)
    out = stage.transfer(DEFAULT_NOMINAL_SWING, 180 * PS)
    assert not out.fired
    assert out.failure is StageFailure.COLLAPSED


def test_sensitivity_swing_bisection(stage):
    floor = stage.sensitivity_swing(180 * PS)
    assert 0.1 < floor < DEFAULT_NOMINAL_SWING
    # Just below fails, just above trips within the dwell.
    assert stage.trip_time(floor - 0.005) > 180 * PS
    assert stage.trip_time(floor + 0.005) <= 180 * PS


def test_sensitivity_improves_with_longer_dwell(stage):
    assert stage.sensitivity_swing(400 * PS) < stage.sensitivity_swing(120 * PS)


def test_alternating_stages_have_different_wx(robust, nominal):
    s0 = SRLRStage(robust, 0, nominal)
    s1 = SRLRStage(robust, 1, nominal)
    s2 = SRLRStage(robust, 2, nominal)
    assert s0.wx > s1.wx  # long-first alternating plan
    assert s0.wx == pytest.approx(s2.wx, rel=1e-6)


def test_weak_nmos_corner_raises_floor(robust):
    tt = SRLRStage(robust, 0, corner_sample(TECH, GlobalCorner("TT", 0, 0)))
    ss = SRLRStage(robust, 0, corner_sample(TECH, GlobalCorner("W", 0.05, 0.0)))
    assert ss.sensitivity_swing(180 * PS) > tt.sensitivity_swing(180 * PS)


def test_invalid_stage_args(robust, nominal):
    with pytest.raises(ConfigurationError):
        SRLRStage(robust, -1, nominal)
    stage = SRLRStage(robust, 0, nominal)
    with pytest.raises(ConfigurationError):
        stage.sensitivity_swing(0.0)


def test_design_validation():
    with pytest.raises(ConfigurationError):
        robust_design(n_stages=0)
    base = robust_design()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(base, c_node_x=-1.0)

"""Pulse attenuation: the low-swing generation mechanism."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tech import tech_45nm_soi
from repro.units import FF, MM, PS
from repro.wire import (
    AttenuationTable,
    PulseTransfer,
    attenuation_table,
    log_quantize,
    pulse_transfer,
    reference_segment,
)

TECH = tech_45nm_soi()


@pytest.fixture(scope="module")
def transfer(segment_1mm):
    return pulse_transfer(segment_1mm, r_drive=300.0, c_load=2 * FF)


@pytest.fixture(scope="module")
def table(segment_1mm):
    return attenuation_table(segment_1mm, r_drive=300.0, c_load=2 * FF, r_decay=400.0)


def test_attenuation_below_unity(transfer):
    # A short pulse arrives attenuated: this IS the low-swing mechanism.
    assert 0.0 < transfer.peak_ratio(100 * PS) < 1.0


def test_attenuation_monotone_in_width(transfer):
    ratios = [transfer.peak_ratio(w * PS) for w in (40, 80, 160, 320)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_long_pulse_approaches_full_swing(transfer):
    assert transfer.peak_ratio(4000 * PS) > 0.95


def test_received_pulse_shape(transfer):
    rp = transfer.received(150 * PS, 0.5)
    assert 0.0 < rp.peak < 0.5
    assert rp.t_peak > 150 * PS  # peak forms after the drive ends
    assert rp.width > 0.0


def test_peak_scales_linearly_with_amplitude(transfer):
    r1 = transfer.received(120 * PS, 0.3)
    r2 = transfer.received(120 * PS, 0.6)
    assert r2.peak == pytest.approx(2 * r1.peak, rel=1e-6)
    assert r2.width == pytest.approx(r1.width, rel=1e-6)


def test_delay_50_reasonable(transfer, segment_1mm):
    d = transfer.delay_50()
    # Between the lumped-RC lower bound and several time constants.
    assert 0.2 * segment_1mm.rc_time_constant < d < 10 * segment_1mm.rc_time_constant


def test_weak_driver_attenuates_more(segment_1mm):
    strong = pulse_transfer(segment_1mm, r_drive=150.0)
    weak = pulse_transfer(segment_1mm, r_drive=1500.0)
    assert weak.peak_ratio(120 * PS) < strong.peak_ratio(120 * PS)


def test_invalid_width_rejected(transfer):
    with pytest.raises(ConfigurationError):
        transfer.far_end_waveform(0.0, 1.0)


# --- AttenuationTable ------------------------------------------------------------------


def test_table_interpolates_exact_solver(table, transfer):
    for w in (60 * PS, 130 * PS, 280 * PS):
        assert table.peak_ratio(w) == pytest.approx(
            transfer.peak_ratio(w), rel=0.03
        )


def test_table_charge_monotone_in_width(table):
    q = [table.charge_in(w * PS) for w in (40, 100, 200, 400)]
    assert all(a < b for a, b in zip(q, q[1:]))


def test_table_charge_bounded_by_total_capacitance(table, segment_1mm):
    # Per volt of drive, the charge cannot exceed the full wire + load cap.
    q_max = table.charge_in(table.w_max)
    assert q_max <= (segment_1mm.capacitance + 2 * FF) * 1.02


def test_table_zero_width_edge_cases(table):
    assert table.peak_ratio(0.0) == 0.0
    assert table.charge_in(-1e-12) == 0.0
    assert table.width_out(0.0) == 0.0


def test_decay_tau_uses_pulldown_resistance(segment_1mm):
    fast = attenuation_table(segment_1mm, 300.0, 2 * FF, r_decay=200.0)
    slow = attenuation_table(segment_1mm, 300.0, 2 * FF, r_decay=2000.0)
    assert slow.decay_tau > fast.decay_tau


def test_table_cached_by_quantized_resistance(segment_1mm):
    a = attenuation_table(segment_1mm, 300.0, 2 * FF, 400.0)
    b = attenuation_table(segment_1mm, 301.0, 2 * FF, 401.0)  # same grid cell
    assert a is b


def test_log_quantize_properties():
    assert log_quantize(100.0) == pytest.approx(100.0, rel=0.08)
    with pytest.raises(ConfigurationError):
        log_quantize(0.0)


@given(value=st.floats(1e-2, 1e6))
def test_log_quantize_bounded_error(value):
    q = log_quantize(value, per_decade=16)
    assert abs(np.log10(q) - np.log10(value)) <= 0.5 / 16 + 1e-12


@settings(max_examples=15, deadline=None)
@given(w1=st.floats(20e-12, 200e-12), w2=st.floats(20e-12, 200e-12))
def test_table_peak_monotonicity_property(table, w1, w2):
    lo, hi = sorted((w1, w2))
    assert table.peak_ratio(lo) <= table.peak_ratio(hi) + 1e-9


# --- on-demand rows: differential against the eager algorithm --------------------------


def _oracle_row(transfer, width):
    """(peak, width_out, t_peak, charge) the eager table computed per grid width.

    Two full public calls, one column each: the far-end waveform for the
    received pulse, node 0 of the pulse response for the supply charge.
    """
    times, v_far = transfer.far_end_waveform(width, 1.0)
    i_peak = int(np.argmax(v_far))
    peak = v_far[i_peak]
    if peak > 0.0:
        above = np.flatnonzero(v_far >= 0.5 * peak)
        wout = times[above[-1]] - times[above[0]]
    else:
        wout = 0.0
    v0 = transfer.solver.pulse_response(times, width, 1.0)[:, 0]
    high = times <= width
    i_drv = (1.0 - v0[high]) / transfer.r_drive
    charge = float(np.trapezoid(i_drv, times[high]))
    return float(peak), float(wout), float(times[i_peak]), charge


def _eager_interp(ws, ys, width):
    """The eager table's scalar interpolation of one quantity."""
    if width <= ws[0]:
        return ys[0]
    if width >= ws[-1]:
        return ys[-1]
    i = bisect_right(ws, width)
    w0, w1 = ws[i - 1], ws[i]
    y0, y1 = ys[i - 1], ys[i]
    return y0 + (y1 - y0) * (width - w0) / (w1 - w0)


def _answers(table, width):
    return (
        table.peak_ratio(width),
        table.width_out(width),
        table.t_peak(width),
        table.charge_in(width),
    )


#: (r_drive, c_load, r_decay, length, n_neighbors) beyond the Fig. 6 points.
GRID_CASES = (
    (80.0, 0.0, 200.0, 1 * MM, 2),
    (300.0, 2 * FF, 400.0, 1 * MM, 2),
    (1500.0, 13 * FF, 2000.0, 1 * MM, 0),
    (300.0, 2 * FF, 400.0, 0.5 * MM, 0),
    (5000.0, 0.0, 400.0, 2 * MM, 2),
)


def _fig6_table_key(factory):
    """(segment, r_drive, c_load, r_decay) of a Fig. 6 design's PM driver."""
    from repro.circuit import SRLRLink

    link = SRLRLink(factory())
    launch = link._pm_launch
    return (
        link.segment,
        log_quantize(launch.r_up),
        log_quantize(link._c_load),
        log_quantize(launch.r_down),
    )


@pytest.mark.parametrize(
    "case", ["fig6-robust", "fig6-straightforward", *range(len(GRID_CASES))]
)
def test_lazy_rows_equal_eager_oracle(case):
    from repro.circuit import robust_design, straightforward_design

    if case == "fig6-robust":
        segment, r_drive, c_load, r_decay = _fig6_table_key(robust_design)
    elif case == "fig6-straightforward":
        segment, r_drive, c_load, r_decay = _fig6_table_key(straightforward_design)
    else:
        r_drive, c_load, r_decay, length, n_neighbors = GRID_CASES[case]
        segment = reference_segment(TECH, length, n_neighbors)
    transfer = PulseTransfer(segment, r_drive, c_load)
    table = AttenuationTable(transfer, r_decay=r_decay)
    assert table.rows_filled == 0
    widths = table._w_list
    # Query every grid width, in an order that is neither ascending nor
    # descending, through the public accessors; at a grid width the
    # interpolation weight is 0, so each answer is that row's value.
    order = list(range(0, len(widths), 2)) + list(range(len(widths) - 1, 0, -2))
    rows = {}
    for i in order:
        rows[i] = _oracle_row(transfer, widths[i])
        assert _answers(table, widths[i]) == rows[i], f"row {i}"
    assert table.rows_filled == table.N_GRID
    # Between grid widths and beyond both ends: the eager table's
    # per-quantity interpolation over the oracle rows.
    columns = [[rows[i][col] for i in range(len(widths))] for col in range(4)]
    for w in np.random.default_rng(3).uniform(0.5 * widths[0], 1.5 * widths[-1], 60):
        w = float(w)
        expected = (
            _eager_interp(widths, columns[0], w),
            _eager_interp(widths, columns[1], w),
            _eager_interp(widths, columns[2], max(w, widths[0])),
            _eager_interp(widths, columns[3], w),
        )
        assert _answers(table, w) == expected, f"width {w!r}"


def test_one_query_fills_at_most_two_rows(segment_1mm):
    transfer = PulseTransfer(segment_1mm, 300.0, 2 * FF)
    table = AttenuationTable(transfer, r_decay=400.0)
    table.peak_ratio(150 * PS)
    assert table.rows_filled == 2
    table.width_out(151 * PS)  # same bracket: nothing new
    assert table.rows_filled == 2
    edge = AttenuationTable(transfer, r_decay=400.0)
    edge.charge_in(1 * PS)  # below the grid: clamps to the first row
    assert edge.rows_filled == 1
    assert edge.peak_ratio(0.0) == 0.0 and edge.rows_filled == 1


@settings(max_examples=10, deadline=None)
@given(
    widths=st.lists(st.floats(1e-12, 800e-12), min_size=1, max_size=12),
    seed=st.integers(0, 2**16),
)
def test_query_order_never_changes_a_value(segment_1mm, widths, seed):
    transfer = pulse_transfer(segment_1mm, r_drive=300.0, c_load=2 * FF)
    shuffled = list(widths)
    np.random.default_rng(seed).shuffle(shuffled)
    a = AttenuationTable(transfer, r_decay=400.0)
    b = AttenuationTable(transfer, r_decay=400.0)
    answers_a = {w: _answers(a, w) for w in widths}
    answers_b = {w: _answers(b, w) for w in shuffled}
    assert answers_a == answers_b

"""The SRLR-based link: repeaters chained by 1 mm wire segments (Fig. 2).

A 10 mm link is the pulse modulator (PM), ten 1 mm wire segments, and an
SRLR at the end of each segment; the demodulator (DM) reads the last SRLR.
Because every SRLR regenerates a *full-swing* pulse internally, the data is
also available at every intermediate repeater — the free 1-to-N multicast
of Section II — so :meth:`SRLRLink.transmit` records the bit stream seen at
every tap, not just the last.

The bit-level model tracks, per hop and per unit interval:

* the received peak swing (wire attenuation of the launched pulse plus any
  residual inter-symbol voltage left by earlier pulses through the
  pull-down decay constant),
* the received dwell (time above half peak, bounded by the UI),
* the stage's fire/no-fire decision and regenerated output width,
* supply energy (exact charge integral through the driver) and stage
  internal energy.

Failures emerge rather than being scripted: weak corners collapse pulse
widths along the link (Eq. (1)), strong/slow-discharge corners merge bits
or fire on residual charge (Eq. (2) and the '11110' mode of Section III-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.circuit.srlr import (
    DEFAULT_LAUNCH_WIDTH,
    SRLRDesignParams,
    SRLRStage,
    StageFailure,
)
from repro.tech.variation import VariationSample, nominal_sample
from repro.wire.attenuation import AttenuationTable, attenuation_table
from repro.wire.rc import WireSegment

#: Effective switched capacitance per delay-cell buffer (energy model).
C_BUFFER_SWITCHED = 1.15e-15


@dataclass(frozen=True)
class StageRecord:
    """Per-stage trace of a single propagating pulse (Eq. (1)/(2) data)."""

    stage_index: int
    in_swing: float
    in_dwell: float
    fired: bool
    failure: StageFailure
    out_width: float


@dataclass
class TransmissionResult:
    """Outcome of transmitting a bit pattern through the link."""

    sent: list[int]
    received: list[int]
    tap_bits: list[list[int]]  # bits observed at each SRLR tap (index = stage)
    energy: float  # total supply energy, joules
    stuck: bool  # a stage's standby margin was inverted
    #: Per-UI (swing, dwell, fired) observed at the probed stage's input,
    #: populated when ``transmit`` is called with ``probe_stage``.
    probe: list[tuple[float, float, bool]] | None = None

    @property
    def n_errors(self) -> int:
        return sum(1 for a, b in zip(self.sent, self.received) if a != b)

    @property
    def ok(self) -> bool:
        return self.n_errors == 0 and not self.stuck

    @property
    def energy_per_bit(self) -> float:
        if not self.sent:
            return 0.0
        return self.energy / len(self.sent)


@dataclass
class SRLRLink:
    """An instantiated SRLR link: one design on one die (variation sample)."""

    design: SRLRDesignParams
    sample: VariationSample = None  # type: ignore[assignment]
    launch_width: float = DEFAULT_LAUNCH_WIDTH
    #: Mismatch namespace (see :class:`SRLRStage`); bit lanes of a bus
    #: pass e.g. ``"bit17."`` so each lane draws its own local mismatch.
    name_prefix: str = ""

    stages: list[SRLRStage] = field(init=False)
    segment: WireSegment = field(init=False)

    def __post_init__(self) -> None:
        if self.sample is None:
            self.sample = nominal_sample(self.design.tech)
        if self.launch_width <= 0.0:
            raise ConfigurationError(
                f"launch_width must be positive, got {self.launch_width}"
            )
        d = self.design
        self.stages = [
            SRLRStage(d, i, self.sample, name_prefix=self.name_prefix)
            for i in range(d.n_stages)
        ]
        self.segment = WireSegment(d.tech, d.geometry, d.segment_length)
        # The PM uses the same driver design as the repeaters.
        self._pm_launch = d.driver.launch(
            self.sample, f"{self.name_prefix}pm", d.swing_reference.vref(self.sample)
        )
        # M1's gate is the receiver load; a long-channel device's gate cap
        # scales with W * L.
        self._c_load = d.tech.gate_c_per_m * d.m1_width * d.m1_length_factor
        # Per-stage internal pulse energy is a per-die constant: cache it.
        self._internal_energy = [
            self._stage_internal_energy(stage) for stage in self.stages
        ]

    # --- wire transfer plumbing ---------------------------------------------------

    def _table(self, r_up: float, r_down: float) -> AttenuationTable:
        return attenuation_table(self.segment, r_up, self._c_load, r_down)

    # --- single-pulse propagation (Eq. (1)/(2) view) -------------------------------

    def propagate_pulse(
        self, width: float | None = None, dwell_limit: float | None = None
    ) -> list[StageRecord]:
        """Propagate one isolated pulse, recording per-stage widths/swings.

        This is the paper's Section III-A experiment: watching the output
        pulse width evolve stage to stage.  ``dwell_limit`` caps the usable
        input dwell (pass the bit period to model back-to-back operation;
        default unlimited, i.e. an isolated pulse).
        """
        width = self.launch_width if width is None else width
        launch = self._pm_launch
        records: list[StageRecord] = []
        for stage in self.stages:
            table = self._table(launch.r_up, launch.r_down)
            swing = table.peak_ratio(width) * launch.amplitude
            dwell = table.width_out(width)
            if dwell_limit is not None:
                dwell = min(dwell, dwell_limit)
            out = stage.transfer(swing, dwell)
            records.append(
                StageRecord(
                    stage_index=stage.stage_index,
                    in_swing=swing,
                    in_dwell=dwell,
                    fired=out.fired,
                    failure=out.failure,
                    out_width=out.out_width,
                )
            )
            if not out.fired:
                break
            width = out.out_width
            launch = out.launch
        return records

    def latency(self, width: float | None = None) -> float:
        """End-to-end latency of one isolated pulse (launch to last tap).

        Returns ``inf`` if the pulse dies before the last stage.
        """
        width = self.launch_width if width is None else width
        launch = self._pm_launch
        total = 0.0
        for stage in self.stages:
            table = self._table(launch.r_up, launch.r_down)
            swing = table.peak_ratio(width) * launch.amplitude
            dwell = table.width_out(width)
            out = stage.transfer(swing, dwell)
            if not out.fired:
                return float("inf")
            total += table.t_peak(width) + out.stage_delay
            width = out.out_width
            launch = out.launch
        return total

    # --- energy -------------------------------------------------------------------

    def _stage_internal_energy(self, stage: SRLRStage) -> float:
        """Supply energy of one fired pulse inside one repeater."""
        d = self.design
        vdd = d.tech.vdd
        # Node X: discharged by dv_trip + rise depth, recharged from Vdd.
        dv_x = max(stage.dv_trip, 0.0) + d.rise_sense_depth
        e_node_x = d.c_node_x * dv_x * vdd
        # Delay cell: every buffer node makes a full up+down excursion.
        cell = d.delay_plan.cell_for_stage(stage.stage_index)
        e_delay = cell.n_buffers * C_BUFFER_SWITCHED * vdd**2
        # INV output and the driver gates it charges.
        e_inv = d.inv.c_out * vdd**2
        e_driver_gate = d.driver.gate_capacitance(self.sample) * vdd**2
        return e_node_x + e_delay + e_inv + e_driver_gate

    def energy_per_pulse(self) -> dict[str, float]:
        """Nominal per-pulse energy breakdown over the whole link, joules.

        One '1' bit traversing all ``n_stages`` segments: wire charge at
        every hop plus internal energy at every repeater.
        """
        d = self.design
        vdd = d.tech.vdd
        launch = self._pm_launch
        width = self.launch_width
        e_wire = 0.0
        e_internal = 0.0
        for stage, e_stage in zip(self.stages, self._internal_energy):
            table = self._table(launch.r_up, launch.r_down)
            e_wire += vdd * launch.amplitude * table.charge_in(width)
            swing = table.peak_ratio(width) * launch.amplitude
            out = stage.transfer(swing, table.width_out(width))
            if not out.fired:
                break
            e_internal += e_stage
            width = out.out_width
            launch = out.launch
        return {
            "wire": e_wire,
            "internal": e_internal,
            "total": e_wire + e_internal,
        }

    # --- bit-level transmission -----------------------------------------------------

    def transmit(
        self,
        bits: list[int],
        bit_period: float,
        noise_sigma: float = 0.0,
        rng=None,
        probe_stage: int | None = None,
    ) -> TransmissionResult:
        """Send ``bits`` at one bit per ``bit_period`` and demodulate each tap.

        The model walks hop by hop: the full launch schedule of one hop is
        transformed into the receive schedule of the next, tracking the
        residual (incompletely discharged) far-end voltage across unit
        intervals — the mechanism behind both the '11110' failure and
        spurious residual-triggered firing.

        ``noise_sigma`` adds zero-mean Gaussian voltage noise (thermal +
        supply) to every received swing, which is what makes the BER of a
        working link finite rather than exactly zero; pass an
        ``numpy.random.Generator`` as ``rng`` for reproducibility.

        ``probe_stage`` records the per-UI received (swing, dwell, fired)
        at that stage's input — the eye-diagram observation point.
        """
        if bit_period <= 0.0:
            raise ConfigurationError(
                f"bit_period must be positive, got {bit_period}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ConfigurationError("bits must be 0/1")
        if noise_sigma < 0.0:
            raise ConfigurationError(
                f"noise_sigma must be non-negative, got {noise_sigma}"
            )
        if noise_sigma > 0.0 and rng is None:
            rng = np.random.default_rng(0)
        if probe_stage is not None and not 0 <= probe_stage < len(self.stages):
            raise ConfigurationError(
                f"probe_stage must be in [0, {len(self.stages)}), got {probe_stage}"
            )
        probe: list[tuple[float, float, bool]] | None = (
            [] if probe_stage is not None else None
        )

        d = self.design
        vdd = d.tech.vdd
        n = len(bits)
        energy = 0.0
        stuck = any(s.is_stuck for s in self.stages)

        # Launch schedule entering the current hop: per-UI pulse width or 0.
        widths = [self.launch_width if b else 0.0 for b in bits]
        launch = self._pm_launch
        tap_bits: list[list[int]] = []

        if stuck:
            # A stuck stage fires continuously: every UI reads as '1'
            # downstream.  (Energy of a broken link is not meaningful.)
            ones = [1] * n
            return TransmissionResult(
                sent=list(bits),
                received=ones,
                tap_bits=[ones[:] for _ in self.stages],
                energy=0.0,
                stuck=True,
            )

        for stage, e_stage in zip(self.stages, self._internal_energy):
            table = self._table(launch.r_up, launch.r_down)
            tau = table.decay_tau
            residual = 0.0
            out_widths = [0.0] * n
            fired_bits = [0] * n
            decay_frac = math.exp(-bit_period / tau)
            # UI-average of an exponentially decaying residual, as a
            # fraction of its start-of-UI value: the effective constant
            # level M1 integrates over a pulse-free interval.
            avg_frac = (tau / bit_period) * (1.0 - decay_frac)
            # Self-reset dead time: after a fire, X must be recharged and
            # the delay cell cleared before the stage can sense again.
            busy_until = -float("inf")
            for k in range(n):
                w = widths[k]
                if w > 0.0:
                    peak, w_out, t_peak, charge = table.at(w)
                    energy += vdd * launch.amplitude * charge
                    residual_at_peak = residual * math.exp(
                        -min(t_peak, bit_period) / tau
                    )
                    swing = peak * launch.amplitude + residual_at_peak
                    dwell = min(w_out, bit_period)
                else:
                    # No pulse launched: the stage integrates the decaying
                    # residual baseline, which may still trip it (the
                    # spurious '1' behind the '11110' failure).
                    swing = residual * avg_frac
                    dwell = bit_period
                    t_peak = 0.0
                if noise_sigma > 0.0:
                    swing += float(rng.normal(0.0, noise_sigma))
                ui_start = k * bit_period
                if ui_start >= busy_until:
                    out = stage.transfer(swing, dwell)
                    if out.fired:
                        fired_bits[k] = 1
                        out_widths[k] = out.out_width
                        energy += e_stage
                        busy_until = (
                            ui_start + out.t_trip + stage.wx + d.reset_recovery
                        )
                # else: the repeater is still mid-reset and the pulse is
                # lost — the overspeed failure that bounds the data rate.
                # The wire state evolves regardless of the receiver.
                if probe is not None and stage.stage_index == probe_stage:
                    probe.append((swing, dwell, bool(fired_bits[k])))
                # Residual at the start of the next UI: the far-end voltage
                # decays through the pull-down path from its peak.
                if w > 0.0 and swing > 0.0:
                    residual = swing * math.exp(-max(bit_period - t_peak, 0.0) / tau)
                else:
                    residual = residual * decay_frac
            tap_bits.append(fired_bits)
            widths = out_widths
            launch = stage.launch

        return TransmissionResult(
            sent=list(bits),
            received=tap_bits[-1][:],
            tap_bits=tap_bits,
            energy=energy,
            stuck=False,
            probe=probe,
        )

    # --- operating-point search -----------------------------------------------------

    def max_data_rate(
        self,
        pattern: list[int],
        rate_lo: float = 0.5e9,
        rate_hi: float = 12e9,
        tolerance: float = 0.05e9,
    ) -> float:
        """Highest data rate at which ``pattern`` transmits without error.

        Bisection over the bit period; returns 0.0 if even ``rate_lo``
        fails.  This reproduces the measurement methodology behind the
        paper's 4.1 Gb/s maximum data rate.
        """
        if not 0.0 < rate_lo < rate_hi:
            raise ConfigurationError("need 0 < rate_lo < rate_hi")

        def ok(rate: float) -> bool:
            return self.transmit(pattern, 1.0 / rate).ok

        if not ok(rate_lo):
            return 0.0
        if ok(rate_hi):
            return rate_hi
        lo, hi = rate_lo, rate_hi
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        return lo

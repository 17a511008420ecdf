"""Span recorder for the traced benchmark run.

Wraps public functions of the program from the outside (no code under
``src/`` knows about it), keeps one span per call in memory with a link
to the span that caused it, and turns the spans of one repetition into
the per-layer metrics listed in ``BENCHMARK.json``.

A span's *self time* is its duration minus the durations of its direct
children.  Spans are recorded on the main thread only (the service
worker's heartbeat thread runs concurrently and would otherwise
interleave with the main thread's stack), so children never overlap and
the subtraction is exact.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass

#: The program's layers (its top-level modules).  ``repro.dse`` is
#: deliberately unmeasured; see README.md.  ``bench`` is the benchmark's
#: own root span: its self time is what no wrapped call covers.
LAYERS = (
    "tech", "wire", "circuit", "mc", "analysis",
    "noc", "workload", "fault", "runtime", "service", "bench",
)

#: (module, attribute path, span name).  The span name's prefix up to the
#: first dot is its layer.  Several targets may share a span name.
TARGETS = (
    ("repro.analysis.experiments", "e4_fig6_montecarlo", "analysis.e4"),
    ("repro.mc.yield_analysis", "sweep_swing", "mc.sweep"),
    ("repro.mc.yield_analysis", "design_variants", "mc.design"),
    ("repro.mc.engine", "run_monte_carlo", "mc.run"),
    ("repro.mc.engine", "simulate_die", "mc.die"),
    ("repro.mc.ber", "ber_upper_bound_many", "mc.ber_bounds"),
    ("repro.tech.variation", "monte_carlo_sample", "tech.sample"),
    ("repro.circuit.srlr", "robust_design", "circuit.design"),
    ("repro.circuit.srlr", "straightforward_design", "circuit.design"),
    ("repro.circuit.link", "SRLRLink.__post_init__", "circuit.link_build"),
    ("repro.circuit.link", "SRLRLink.transmit", "circuit.transmit"),
    ("repro.circuit.srlr", "SRLRStage.transfer", "circuit.stage_transfer"),
    ("repro.wire.attenuation", "attenuation_table", "wire.lookup"),
    ("repro.wire.attenuation", "AttenuationTable.__init__", "wire.table_build"),
    ("repro.runtime.executor", "ParallelExecutor.map", "runtime.map"),
    ("repro.noc.simulator", "NocSimulator.__init__", "noc.sim_build"),
    ("repro.noc.fastsim", "FastNocSimulator.__init__", "noc.sim_build"),
    ("repro.noc.simulator", "NocSimulator.run", "noc.run"),
    ("repro.noc.simulator", "NocSimulator.step", "noc.step_reference"),
    ("repro.noc.fastsim", "FastNocSimulator.step", "noc.step_fast"),
    ("repro.noc.traffic", "SyntheticTraffic.packets_for_cycle", "workload.traffic"),
    ("repro.noc.trace", "TraceTraffic.packets_for_cycle", "workload.traffic"),
    ("repro.workload.generators", "BurstyTraffic.packets_for_cycle", "workload.traffic"),
    ("repro.workload.generators", "CollectiveTraffic.packets_for_cycle", "workload.traffic"),
    ("repro.workload.payload", "PayloadedTraffic.packets_for_cycle", "workload.traffic"),
    ("repro.workload", "build_traffic", "workload.build_traffic"),
    ("repro.workload.energy", "coupling_miller_fraction", "workload.payload_pricing"),
    ("repro.workload.energy", "link_payload_energy", "workload.payload_pricing"),
    ("repro.workload.energy", "payload_datapath_energy", "workload.payload_pricing"),
    ("repro.fault.campaign", "run_fault_campaign", "fault.campaign"),
    ("repro.fault.campaign", "_evaluate_point", "fault.point"),
    ("repro.fault.injector", "FaultLayer.begin_cycle", "fault.begin_cycle"),
    ("repro.fault.injector", "FaultLayer.next_event_cycle", "fault.next_event"),
    ("repro.fault.injector", "FaultChannel.transmit", "fault.transmit"),
    ("repro.fault.energy", "price_fault_run", "fault.pricing"),
    ("repro.service.db", "CampaignDB.submit", "service.submit"),
    ("repro.service.db", "CampaignDB.lease", "service.lease"),
    ("repro.service.db", "CampaignDB.complete", "service.complete"),
    ("repro.service.db", "CampaignDB.fail", "service.fail"),
    ("repro.service.db", "CampaignDB.payloads", "service.payloads"),
    ("repro.service.db", "CampaignDB.record_worker", "service.record_worker"),
    ("repro.service.worker", "run_worker", "service.worker"),
    ("repro.service.worker", "execute_task", "service.execute_task"),
    ("repro.service.adapters", "FaultCampaignAdapter.canonical_config", "service.canonical"),
    ("repro.service.adapters", "FaultCampaignAdapter.expand", "service.expand"),
    ("repro.service.adapters", "FaultCampaignAdapter.run_task", "service.run_task"),
    ("repro.service.adapters", "FaultCampaignAdapter.merge", "service.merge"),
)

ROOT = "bench.rep"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    #: Items the call handled, where a span counts something (packets
    #: returned by a traffic generator, rows returned by a lease).
    n: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _executor_retries(executor) -> int:
    metrics = executor.last_metrics
    return 0 if metrics is None else metrics.retries


#: Span names whose ``n`` is derived from the call (see :class:`Span`).
COUNTERS = {
    "workload.traffic": lambda args, result: len(result),
    "service.lease": lambda args, result: len(result),
    "runtime.map": lambda args, result: _executor_retries(args[0]),
}


class SpanRecorder:
    """In-memory spans with parent links, from wrappers installed on demand."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        #: TaskFailure results seen by ``runtime.map`` calls.
        self.task_failures = 0

    # --- recording -----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        recorder = self
        counter = COUNTERS.get(name)
        count_failures = name == "runtime.map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != recorder._main:
                return fn(*args, **kwargs)
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if counter is not None:
                recorder.spans[index].n = counter(args, result)
            if count_failures:
                recorder.task_failures += sum(
                    1 for r in result if type(r).__name__ == "TaskFailure"
                )
            return result

        return traced

    # --- installation --------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Replace every target with a recording wrapper.

        A module-level function is replaced in every loaded ``repro``
        module that holds it by name (``from x import f`` copies the
        reference), so callers in other modules are traced too.  Targets
        that do not exist (renamed by a later change) are listed in
        :attr:`missing` and skipped.
        """
        # Resolve (and import) every target before patching any, so that no
        # module imported along the way binds a wrapper uninstall misses.
        resolved = []
        for module_name, path, name in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            resolved.append((owner, attr, original, name))
        for owner, attr, original, name in resolved:
            wrapped = self.wrap(original, name)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# --- analysis ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child_time)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


#: Per-layer metric names and units, in the order ``BENCHMARK.json`` lists them.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "mc.dies": "count",
    "mc.die_ms_p50": "ms",
    "mc.die_ms_p99": "ms",
    "mc.fail_ratio": "ratio",
    "mc.design_s": "s",
    "tech.sample_s": "s",
    "tech.samples": "count",
    "circuit.transmit_s": "s",
    "circuit.stage_transfer_s": "s",
    "circuit.stage_transfers": "count",
    "wire.table_build_s": "s",
    "wire.table_builds": "count",
    "wire.table_hit_ratio": "ratio",
    "wire.lookup_s": "s",
    "fault.begin_cycle_s": "s",
    "fault.next_event_s": "s",
    "fault.packet_retries": "count",
    "fault.point_s_max": "s",
    "fault.transmit_s": "s",
    "fault.link_transmits": "count",
    "fault.raw_faults": "count",
    "fault.goodput_ratio": "ratio",
    "fault.pricing_s": "s",
    "mc.ber_bounds_s": "s",
    "noc.step_s": "s",
    "noc.cycles": "count",
    "noc.us_per_cycle": "us",
    "noc.fast_cycle_share": "ratio",
    "noc.sim_build_s": "s",
    "workload.traffic_s": "s",
    "workload.packets_offered": "count",
    "workload.payload_pricing_s": "s",
    "service.submit_s": "s",
    "service.lease_s": "s",
    "service.complete_s": "s",
    "service.merge_s": "s",
    "service.run_task_s": "s",
    "service.task_overhead_s": "s",
    "service.queue_wait_s": "s",
    "service.tasks": "count",
    "service.lost_races": "count",
    "runtime.map_self_s": "s",
    "runtime.retries": "count",
    "runtime.task_failures": "count",
    **{f"layer.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def rep_metrics(spans: list[Span], task_failures: int = 0) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition.

    Metrics that come from elsewhere (setup split, result counters,
    cache statistics, the overhead ratio) are filled in by the caller.
    """
    selfs = self_times(spans)
    self_by: dict[str, float] = {}
    total_by: dict[str, float] = {}
    count_by: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        self_by[span.name] = self_by.get(span.name, 0.0) + own
        durations.setdefault(span.name, []).append(span.duration)
        # Nested spans of one name (a subclass constructor calling its
        # base) count once, at the outermost.
        if span.parent < 0 or spans[span.parent].name != span.name:
            total_by[span.name] = total_by.get(span.name, 0.0) + span.duration
            count_by[span.name] = count_by.get(span.name, 0) + 1

    def own(*names: str) -> float:
        return sum(self_by.get(n, 0.0) for n in names)

    def total(*names: str) -> float:
        return sum(total_by.get(n, 0.0) for n in names)

    def count(*names: str) -> int:
        return sum(count_by.get(n, 0) for n in names)

    def items(name: str) -> int:
        return sum(
            s.n for s in spans
            if s.name == name and (s.parent < 0 or spans[s.parent].name != name)
        )

    die_ms = [d * 1e3 for d in durations.get("mc.die", [])]
    cycles = count("noc.step_fast", "noc.step_reference")
    step_total = total("noc.step_fast", "noc.step_reference")

    submit_end = max((s.end for s in spans if s.name == "service.submit"), default=None)
    waits = [
        s.end - submit_end
        for s in spans
        if s.name == "service.lease" and s.n > 0 and submit_end is not None
    ]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, value in zip(spans, selfs):
        layer = layer_of(span.name)
        layer_self[layer] = layer_self.get(layer, 0.0) + value

    metrics = {
        "mc.dies": count("mc.die"),
        "mc.die_ms_p50": _percentile(die_ms, 50),
        "mc.die_ms_p99": _percentile(die_ms, 99),
        "mc.design_s": total("mc.design"),
        "tech.sample_s": own("tech.sample"),
        "tech.samples": count("tech.sample"),
        "circuit.transmit_s": own("circuit.transmit"),
        "circuit.stage_transfer_s": own("circuit.stage_transfer"),
        "circuit.stage_transfers": count("circuit.stage_transfer"),
        "wire.table_build_s": own("wire.table_build"),
        "wire.table_builds": count("wire.table_build"),
        "wire.lookup_s": own("wire.lookup"),
        "fault.begin_cycle_s": own("fault.begin_cycle"),
        "fault.next_event_s": own("fault.next_event"),
        "fault.point_s_max": max(durations.get("fault.point", [0.0])),
        "fault.transmit_s": own("fault.transmit"),
        "fault.link_transmits": count("fault.transmit"),
        "fault.pricing_s": own("fault.pricing"),
        "mc.ber_bounds_s": own("mc.ber_bounds"),
        "noc.step_s": own("noc.step_fast", "noc.step_reference"),
        "noc.cycles": cycles,
        "noc.us_per_cycle": step_total / cycles * 1e6 if cycles else 0.0,
        "noc.fast_cycle_share": count("noc.step_fast") / cycles if cycles else 0.0,
        "noc.sim_build_s": total("noc.sim_build"),
        "workload.traffic_s": own("workload.traffic"),
        "workload.packets_offered": items("workload.traffic"),
        "workload.payload_pricing_s": own("workload.payload_pricing"),
        "service.submit_s": own("service.submit"),
        "service.lease_s": own("service.lease"),
        "service.complete_s": own("service.complete"),
        "service.merge_s": own("service.merge"),
        "service.run_task_s": total("service.run_task"),
        "service.task_overhead_s": (
            total("service.execute_task") - total("service.run_task")
        ),
        "service.queue_wait_s": statistics.fmean(waits) if waits else 0.0,
        "runtime.map_self_s": own("runtime.map"),
        "runtime.retries": items("runtime.map"),
        "runtime.task_failures": task_failures,
        "trace.wall_s": total(ROOT),
    }
    metrics.update({f"layer.{layer}_s": layer_self[layer] for layer in LAYERS})
    return metrics

"""Protection protocols: end-to-end retry, adaptive reroute, and the
livelock detector that backstops them."""

from __future__ import annotations

import hashlib
import heapq
import json
import random

import pytest

from repro.errors import LivelockError, ProtocolError
from repro.fault import FaultLayer, NoFaults, UniformBer
from repro.fault.campaign import (
    FaultCampaignConfig,
    point_payload,
    run_fault_campaign,
)
from repro.fault.injector import FaultStats
from repro.fault.models import DeadLinks
from repro.fault.protection import (
    EndToEndTracker,
    ProtectionConfig,
    TransferRecord,
)
from repro.fault.reroute import AdaptiveRoutingTable
from repro.noc import MeshTopology, NocSimulator, Packet, Port
from repro.noc.routing import xy_route


class TestProtectionConfig:
    def test_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProtectionConfig(protocol="parity")
        with pytest.raises(ConfigurationError):
            ProtectionConfig(max_link_retries=0)
        with pytest.raises(ConfigurationError):
            ProtectionConfig(backoff_factor=0.5)

    def test_link_level(self):
        assert ProtectionConfig(protocol="crc").link_level
        assert ProtectionConfig(protocol="reroute").link_level
        assert not ProtectionConfig(protocol="e2e").link_level
        assert not ProtectionConfig(protocol="none").link_level


class TestEndToEnd:
    def test_recovers_over_garbage_dead_link(self):
        """A permanently-garbling wire: e2e retries until packets land
        clean (XY keeps sending some transfers across it, so retries
        must fire) and failed transfers stay bounded."""
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        layer = FaultLayer(
            DeadLinks(victims=("1,1->1,2",), fail_cycle=0), "e2e", seed=2
        ).attach(sim)
        stats = sim.run(warmup=40, measure=250, drain_limit=60_000)
        assert layer.stats.packet_retries > 0
        assert layer.stats.completed_transfers > 0
        # Completed transfers produced records with sane latencies.
        for record in layer.stats.transfer_records:
            assert isinstance(record, TransferRecord)
            assert record.completed >= record.first_inject
        # e2e delivers clean copies eventually; corrupted deliveries are
        # the detected-and-retried attempts, not the final outcome.
        assert layer.stats.completed_transfers >= stats.clean_delivered_count

    def test_short_timeout_produces_duplicates_that_are_deduped(self):
        """With a timeout far below the real round trip and zero errors,
        the source re-sends packets that were never lost; the tracker
        must dedup the extra deliveries, and every transfer still
        completes exactly once."""
        protection = ProtectionConfig(
            protocol="e2e", timeout_cycles=4, max_packet_retries=8
        )
        sim = NocSimulator(2, injection_rate=0.05, seed=6)
        layer = FaultLayer(UniformBer(0.0), protection, seed=1).attach(sim)
        sim.run(warmup=30, measure=150, drain_limit=60_000)
        assert layer.stats.duplicate_deliveries > 0
        assert layer.stats.packet_retries > 0
        assert layer.stats.failed_transfers == 0
        assert layer.stats.completed_transfers == len(
            layer.stats.transfer_records
        )

    def test_retry_exhaustion_fails_transfer(self):
        """Severed wire in drop mode: transfers that must cross it burn
        all retries and are declared failed rather than retried forever."""
        sim = NocSimulator(2, injection_rate=0.05, seed=3)
        protection = ProtectionConfig(
            protocol="e2e", max_packet_retries=2, timeout_cycles=40
        )
        layer = FaultLayer(
            DeadLinks(victims=("0,0->0,1",), fail_cycle=0, mode="drop"),
            protection,
            seed=1,
        ).attach(sim)
        sim.run(warmup=30, measure=150, drain_limit=60_000)
        assert layer.stats.failed_transfers > 0
        for record in layer.stats.transfer_records:
            assert record.retries <= protection.max_packet_retries



# --- EndToEndTracker retry timers -------------------------------------------------------


class _ScanTracker(EndToEndTracker):
    """The oracle: retry timers found by scanning every outstanding
    transfer each cycle, as the tracker did before its deadline heap."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._last_send: dict[int, int] = {}

    def on_offer(self, packet: Packet, cycle: int) -> None:
        super().on_offer(packet, cycle)
        tid = self._transfer_of_packet[packet.packet_id]
        self._last_send.setdefault(tid, cycle)

    def begin_cycle(self, cycle: int) -> None:
        while self._acks and self._acks[0][0] <= cycle:
            _due, _seq, tid, _dest, delivery_cycle = heapq.heappop(self._acks)
            self.events += 1
            transfer = self._transfers.get(tid)
            if transfer is None:
                continue
            if not transfer.pending:
                del self._transfers[tid]
                self.stats.completed_transfers += 1
                self.stats.transfer_records.append(
                    TransferRecord(
                        src=transfer.src,
                        dests=transfer.dests,
                        first_inject=transfer.first_inject,
                        completed=transfer.last_delivery,
                        retries=transfer.retries,
                    )
                )
        for tid in sorted(self._transfers):
            transfer = self._transfers[tid]
            if not transfer.pending:
                continue
            if cycle - self._last_send[tid] < self._timeout(transfer.retries):
                continue
            self.events += 1
            if transfer.retries >= self.config.max_packet_retries:
                del self._transfers[tid]
                self.stats.failed_transfers += 1
                continue
            transfer.retries += 1
            self._last_send[tid] = cycle
            self.stats.packet_retries += 1
            packet = Packet(
                src=transfer.src,
                dests=frozenset(transfer.pending),
                size_flits=transfer.size_flits,
                inject_cycle=cycle,
                routing=transfer.routing,
            )
            self._transfer_of_packet[packet.packet_id] = tid
            self.reinject(packet)

    def next_event_cycle(self) -> int | None:
        candidates = []
        if self._acks:
            candidates.append(self._acks[0][0])
        for tid, transfer in self._transfers.items():
            if transfer.pending:
                candidates.append(
                    self._last_send[tid] + self._timeout(transfer.retries)
                )
        return min(candidates) if candidates else None


def _drive_tracker_pair(seed: int, steps: int = 250) -> dict[str, int]:
    """Feed the heap tracker and the scan oracle one random hook sequence.

    After every hook call both must agree on the reinjected packets,
    ``events``, every ``FaultStats`` field and ``next_event_cycle()``.
    Returns coverage counts so the caller can check what was exercised.
    """
    rng = random.Random(seed)
    topology = MeshTopology(rng.choice([2, 3, 4]))
    nodes = sorted(topology.nodes())
    config = ProtectionConfig(
        protocol="e2e",
        max_packet_retries=rng.choice([0, 1, 2, 3, 6]),
        ack_overhead_cycles=rng.choice([0, 2, 4]),
        timeout_cycles=rng.choice([None, 1, 2, 3, 5, 9]),
        backoff_factor=rng.choice([1.0, 1.5, 2.0, 3.0]),
        max_backoff_scale=rng.choice([1.0, 2.5, 8.0]),
    )
    link_latency = rng.choice([1, 2])
    # Per tracker: every packet it knows (shared originals plus its own
    # reinjections, index-aligned while the two agree) and its reinjections.
    sides = []
    for cls in (EndToEndTracker, _ScanTracker):
        known: list[Packet] = []
        resent: list[Packet] = []

        def reinject(packet, known=known, resent=resent):
            known.append(packet)
            resent.append(packet)

        tracker = cls(config, topology, link_latency, FaultStats(), reinject)
        sides.append((tracker, known, resent))
    coverage = {"multi_retry_calls": 0}

    def check():
        (heap, _, heap_resent), (scan, _, scan_resent) = sides
        assert [(p.src, p.dests, p.inject_cycle) for p in heap_resent] == [
            (p.src, p.dests, p.inject_cycle) for p in scan_resent
        ]
        assert heap.events == scan.events
        assert vars(heap.stats) == vars(scan.stats)
        assert heap.next_event_cycle() == scan.next_event_cycle()

    cycle = 0
    for _ in range(steps):
        op = rng.random()
        known = sides[0][1]
        if op < 0.3 or not known:
            src = rng.choice(nodes)
            others = [n for n in nodes if n != src]
            dests = frozenset(rng.sample(others, rng.choice([1, 1, 1, 2, 3])))
            packet = Packet(src=src, dests=dests, size_flits=1, inject_cycle=cycle)
            for tracker, known, _ in sides:
                known.append(packet)
                tracker.on_offer(packet, cycle)
        elif op < 0.6:
            i = rng.randrange(len(known))
            dest = rng.choice(sorted(known[i].dests))
            corrupted = rng.random() < 0.3
            for tracker, known, _ in sides:
                tracker.on_delivery(known[i], dest, cycle, corrupted)
        elif op < 0.63:
            i = rng.randrange(len(known))
            for tracker, known, _ in sides:
                tracker.on_unreachable(known[i])
        else:
            # Gaps skip cycles: timers armed at different cycles and
            # retry counts fall due in one call, out of tid order.
            cycle += rng.choice([1, 1, 1, 2, 3, 6, 15, 40])
            before = len(sides[0][2])
            for tracker, _, _ in sides:
                tracker.begin_cycle(cycle)
            if len(sides[0][2]) - before >= 2:
                coverage["multi_retry_calls"] += 1
        check()
    stats = sides[0][0].stats
    coverage["retries"] = stats.packet_retries
    coverage["failed"] = stats.failed_transfers
    coverage["completed"] = stats.completed_transfers
    coverage["duplicates"] = stats.duplicate_deliveries
    return coverage


class TestTrackerTimers:
    def test_deadline_heap_matches_scan_oracle(self):
        totals: dict[str, int] = {}
        for seed in range(40):
            for key, n in _drive_tracker_pair(seed).items():
                totals[key] = totals.get(key, 0) + n
        # The sequences reached every branch the timers have.
        assert all(n > 0 for n in totals.values()), totals

    def test_reinjections_run_in_tid_order_not_deadline_order(self):
        """tid 0 sits at a long backoff timeout, tid 1 at the base one;
        a jump past both fires them in one call, tid 0 first."""
        config = ProtectionConfig(
            protocol="e2e", timeout_cycles=2, max_backoff_scale=8.0
        )
        resent: list[Packet] = []
        tracker = EndToEndTracker(
            config, MeshTopology(2), 1, FaultStats(), resent.append
        )
        first = Packet(
            src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1, inject_cycle=0
        )
        tracker.on_offer(first, 0)
        tracker.begin_cycle(2)  # tid 0 retries; next deadline 2 + 4
        second = Packet(
            src=(1, 0), dests=frozenset({(0, 1)}), size_flits=1, inject_cycle=3
        )
        tracker.on_offer(second, 3)  # tid 1, deadline 5
        assert tracker.next_event_cycle() == 5
        tracker.begin_cycle(10)
        assert [p.src for p in resent] == [(0, 0), (0, 0), (1, 0)]


def _canonical(value):
    """JSON-ready form of ``value`` with every float as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _pin(payload: dict) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: SHA-256 of ``point_payload`` (floats exact) for e2e campaign points:
#: the parity matrix's e2e topologies on both engines, and the 8x8 point
#: at 1.5e-3 where retries pile up.  Recorded before the retry timers
#: moved to a deadline heap; they must not move.
E2E_POINT_PINS = [
    (
        "mesh4-fast",
        dict(k=4, size_flits=2, injection_rate=0.08, engine="fast"),
        1e-3,
        "1ed708aae7b7ba368c950f01e9db2d829897911071e8b334c9536832df9ca3d1",
    ),
    (
        "mesh4-reference",
        dict(k=4, size_flits=2, injection_rate=0.08, engine="reference"),
        1e-3,
        "1ed708aae7b7ba368c950f01e9db2d829897911071e8b334c9536832df9ca3d1",
    ),
    (
        "torus4-fast",
        dict(topology="torus", k=4, injection_rate=0.06, engine="fast"),
        1e-3,
        "2c24d124dcc05e95d90f68a5ea259e79a91395b98b0f08fda7dec3b4da0fd093",
    ),
    (
        "chiplet2x2-fast",
        dict(
            topology="chiplet",
            k=2,
            chiplets_x=2,
            chiplets_y=2,
            injection_rate=0.06,
            engine="fast",
        ),
        1e-3,
        "4d7f378066bf6afa2b882502b4362c39e839aafb677f718408cbfa1c203bec38",
    ),
    (
        "mesh8-fast-1.5e-3",
        dict(k=8, injection_rate=0.05, engine="fast"),
        1.5e-3,
        "10ac0d0cd648b0c550501df4a63b612dedc3ddec53ea5aa37f3df98f26acb84d",
    ),
]


@pytest.mark.parametrize(
    "config_kwargs,ber,pin",
    [case[1:] for case in E2E_POINT_PINS],
    ids=[case[0] for case in E2E_POINT_PINS],
)
def test_e2e_point_payload_pinned(config_kwargs, ber, pin):
    small = config_kwargs.get("k", 4) < 8
    config = FaultCampaignConfig(
        pattern="uniform",
        bers=(ber,),
        protocols=("e2e",),
        seed=7,
        **({"warmup": 30, "measure": 200} if small else {}),
        **config_kwargs,
    )
    (point,) = run_fault_campaign(config, n_jobs=1).points
    assert point.packet_retries > 0
    assert _pin(point_payload(point)) == pin

class TestAdaptiveRoutingTable:
    def test_intact_mesh_is_exactly_xy(self):
        topology = MeshTopology(4)
        table = AdaptiveRoutingTable(topology)
        for src in topology.nodes():
            for dest in topology.nodes():
                if src == dest:
                    continue
                assert table.next_hop(src, dest) == xy_route(src, dest)

    def test_disable_finds_detour(self):
        topology = MeshTopology(3)
        table = AdaptiveRoutingTable(topology)
        # XY from (0,0) to (2,0) goes EAST through (1,0).
        assert table.next_hop((0, 0), (2, 0)) == Port.EAST
        table.disable((1, 0), Port.EAST)
        assert ((1, 0), Port.EAST) in table.disabled_links
        # Still reachable, but (1,0) itself must now detour.
        assert table.reachable((0, 0), (2, 0))
        assert table.next_hop((1, 0), (2, 0)) != Port.EAST

    def test_isolated_node_unreachable(self):
        topology = MeshTopology(3)
        table = AdaptiveRoutingTable(topology)
        # Sever both links INTO the corner (0,0).
        table.disable((0, 1), Port.SOUTH if xy_route((0, 1), (0, 0)) == Port.SOUTH
                      else xy_route((0, 1), (0, 0)))
        table.disable((1, 0), xy_route((1, 0), (0, 0)))
        assert not table.reachable((2, 2), (0, 0))
        assert table.next_hop((2, 2), (0, 0)) is None
        # Traffic FROM the corner still routes out.
        assert table.reachable((0, 0), (2, 2))

    def test_disable_is_idempotent(self):
        table = AdaptiveRoutingTable(MeshTopology(3))
        port = xy_route((0, 0), (1, 0))
        table.disable((0, 0), port)
        table.disable((0, 0), port)
        assert len(table.disabled_links) == 1


class TestReroute:
    def test_dead_link_gets_disabled_and_routed_around(self):
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        layer = FaultLayer(
            DeadLinks(victims=("1,1->1,2",), fail_cycle=50), "reroute", seed=2
        ).attach(sim)
        stats = sim.run(warmup=40, measure=300, drain_limit=60_000)
        assert layer.stats.links_disabled == 1
        assert layer.table is not None
        assert ((1, 1), Port.NORTH) in layer.table.disabled_links or (
            (1, 1), Port.SOUTH
        ) in layer.table.disabled_links or (
            (1, 1), Port.EAST
        ) in layer.table.disabled_links or (
            (1, 1), Port.WEST
        ) in layer.table.disabled_links
        # After the disable, traffic keeps being delivered cleanly.
        assert stats.delivered_count > 0
        assert layer.stats.crc_giveups >= layer.protection.disable_threshold

    def test_partitioned_destination_is_counted_discard(self):
        """Sever both wires into corner (0,0): flits bound there become
        undeliverable (escape hatch), the network still drains."""
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        layer = FaultLayer(
            DeadLinks(
                victims=("0,1->0,0", "1,0->0,0"), fail_cycle=0, mode="drop"
            ),
            "reroute",
            seed=2,
        ).attach(sim)
        stats = sim.run(warmup=40, measure=300, drain_limit=60_000)
        assert layer.stats.links_disabled == 2
        assert layer.stats.undeliverable_packets > 0
        # Everyone else still gets served.
        assert stats.delivered_count > 0


class TestLivelockDetection:
    def test_retransmission_storm_raises_livelock_error(self):
        """CRC with an effectively unbounded retry budget over a wire
        that is guaranteed faulty: retries stretch without bound and the
        drain can never finish — the detector must convert that into a
        loud LivelockError naming the busiest link."""
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        protection = ProtectionConfig(protocol="crc", max_link_retries=100_000)
        FaultLayer(
            DeadLinks(victims=("1,1->1,2",), fail_cycle=0, mode="drop"),
            protection,
            seed=2,
        ).attach(sim)
        with pytest.raises(LivelockError) as excinfo:
            sim.run(warmup=40, measure=200, drain_limit=3_000)
        message = str(excinfo.value)
        assert "1,1->1,2" in message
        assert "cycle" in message

    def test_livelock_error_is_a_protocol_error(self):
        assert issubclass(LivelockError, ProtocolError)

    def test_stalled_nic_raises_no_forward_progress(self):
        """Wedge the network by hand: exhaust every VC on a NIC's output
        and queue a packet behind them. Nothing is in flight and nothing
        can move — the stall detector must fire rather than spin to the
        drain limit."""
        sim = NocSimulator(2, injection_rate=0.0, seed=1)
        nic = sim.nics[(0, 0)]
        for vc in range(sim.config.n_vcs):
            nic.out.acquire(vc, owner=(Port.LOCAL, 10_000 + vc))
        packet = Packet(
            src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1, inject_cycle=0
        )
        nic.queue.append(packet)
        with pytest.raises(LivelockError) as excinfo:
            sim.run(warmup=10, measure=20, drain_limit=50_000, stall_window=200)
        assert "no forward progress" in str(excinfo.value)

    def test_clean_run_never_trips_detector(self):
        sim = NocSimulator(3, injection_rate=0.08, seed=5)
        FaultLayer(NoFaults(), "none").attach(sim)
        stats = sim.run(warmup=50, measure=300, stall_window=100)
        assert stats.delivered_count > 0

"""Fault campaign throughput: the BER x protection sweep, end to end.

Runs the campaign of the layered benchmark's ``fault_sweep`` workload
(8x8 mesh, fast engine, uniform traffic at 0.05, all four protocols,
BERs 1e-4 and 1.5e-3, campaign seed 7; here without the per-seed BER
jitter) through :func:`repro.fault.campaign.run_fault_campaign` and
appends a perf-trajectory record to
``benchmarks/output/BENCH_fault_campaign.json``: delivered packets per
second over the whole campaign, and the wall time of the high-BER
``e2e`` point alone, where end-to-end retries pile up.
"""

from __future__ import annotations

import json
import os
import time

from conftest import OUTPUT_DIR

from repro.fault import campaign
from repro.fault.campaign import FaultCampaignConfig, run_fault_campaign

CONFIG = FaultCampaignConfig(
    topology="mesh",
    k=8,
    injection_rate=0.05,
    pattern="uniform",
    engine="fast",
    bers=(1e-4, 1.5e-3),
    seed=7,
)


def test_bench_fault_campaign(benchmark, monkeypatch):
    # Time every point as it runs (n_jobs=1 evaluates them in process).
    point_wall: dict[tuple[float, str], float] = {}
    evaluate = campaign._evaluate_point

    def timed_evaluate(task):
        t0 = time.perf_counter()
        point = evaluate(task)
        point_wall[task[1], task[2]] = time.perf_counter() - t0
        return point

    monkeypatch.setattr(campaign, "_evaluate_point", timed_evaluate)

    t0 = time.perf_counter()
    result = benchmark.pedantic(
        run_fault_campaign,
        args=(CONFIG,),
        kwargs={"n_jobs": 1},
        rounds=1,
        iterations=1,
    )
    wall = time.perf_counter() - t0

    assert not result.failures
    assert len(result.points) == len(CONFIG.tasks())
    assert not any(point.livelocked for point in result.points)
    delivered = sum(point.delivered for point in result.points)
    high_ber = max(CONFIG.bers)
    record = {
        "kind": "fault-campaign",
        "bers": list(CONFIG.bers),
        "protocols": list(CONFIG.protocols),
        "points": len(result.points),
        "delivered": delivered,
        "wall_s": wall,
        "delivered_per_s": delivered / wall,
        "e2e_high_ber_wall_s": point_wall[high_ber, "e2e"],
        "host_cpus": os.cpu_count(),
        "unix_time": round(time.time(), 1),
    }
    print(f"\n{json.dumps(record, indent=2)}\n")
    OUTPUT_DIR.mkdir(exist_ok=True)
    trajectory_path = OUTPUT_DIR / "BENCH_fault_campaign.json"
    trajectory = (
        json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    )
    trajectory.append(record)
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")

#!/usr/bin/env python
"""Kill-a-worker smoke: two service workers, one SIGKILLed mid-lease.

Run:  PYTHONPATH=src python scripts/smoke_service.py [--lease-seconds S]

The end-to-end acceptance check for the campaign service
(docs/SERVICE.md): a small fault campaign is submitted to a fresh
database, a victim worker starts draining it alone, and once it
provably holds a lease a survivor worker starts and the victim is
SIGKILLed — the hardest interrupt there is, no cleanup code runs.  The
survivor waits out the dead worker's lease expiry, re-leases its row,
and finishes the campaign.  (The victim starts first because a task
takes milliseconds: two workers started together can drain the whole
campaign before the victim's first lease.)  The merged
result must be **bitwise identical** to an uninterrupted single-process
``run_fault_campaign`` baseline.  Exits nonzero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.fault.campaign import FaultCampaignConfig, run_fault_campaign
from repro.service import CampaignDB, get_adapter

REPO = Path(__file__).resolve().parent.parent

#: Small but not instant: 16 task rows so the kill lands with work left.
CAMPAIGN = {
    "bers": [1e-4, 1e-3, 1e-2, 5e-2],
    "protocols": ["none", "crc", "e2e", "reroute"],
    "k": 2,
    "warmup": 20,
    "measure": 80,
    "seed": 7,
}


def spawn_worker(db: Path, worker_id: str, lease_seconds: float) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen(
        [
            sys.executable,
            str(REPO / "scripts" / "run_worker.py"),
            "--db", str(db),
            "--worker-id", worker_id,
            "--drain",
            "--lease-seconds", str(lease_seconds),
            "--poll-seconds", "0.1",
        ],
        env=env,
    )


def leased_by(db_path: Path, worker_id: str) -> int:
    with CampaignDB(db_path) as db:
        return len(db.leased_keys(worker_id))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lease-seconds", type=float, default=3.0,
                        help="victim lease duration — the recovery latency "
                        "this smoke pays once (default 3)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="overall smoke budget in seconds")
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="service_smoke_"))
    db_path = tmp / "campaigns.sqlite"

    adapter = get_adapter("fault")
    config = adapter.canonical_config(CAMPAIGN)
    tasks = [(t.key, t.index, t.spec) for t in adapter.expand(config)]
    with CampaignDB(db_path) as db:
        receipt = db.submit("smoke", "fault", config, tasks)
    print(f"submitted campaign {receipt.config_key[:16]}: "
          f"{receipt.n_tasks} tasks")

    deadline = time.monotonic() + args.timeout
    victim = spawn_worker(db_path, "victim", args.lease_seconds)
    survivor = None
    try:
        # Kill the victim only once it provably holds a lease, so the
        # expiry-recovery path is genuinely exercised.
        while leased_by(db_path, "victim") == 0:
            if victim.poll() is not None:
                print("FAIL: victim exited before holding a lease",
                      file=sys.stderr)
                return 1
            if time.monotonic() > deadline:
                print("FAIL: victim never leased a task", file=sys.stderr)
                return 1
            time.sleep(0.01)
        survivor = spawn_worker(db_path, "survivor", args.lease_seconds)
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        orphaned = leased_by(db_path, "victim")
        print(f"SIGKILLed victim holding {orphaned} lease(s)")

        while survivor.poll() is None:
            if time.monotonic() > deadline:
                print("FAIL: survivor did not drain in time", file=sys.stderr)
                survivor.kill()
                return 1
            time.sleep(0.2)
        if survivor.returncode != 0:
            print(f"FAIL: survivor exited {survivor.returncode}",
                  file=sys.stderr)
            return 1
    finally:
        for proc in (victim, survivor):
            if proc is not None and proc.poll() is None:
                proc.kill()

    with CampaignDB(db_path) as db:
        status = db.status("smoke")[0]
        payloads = db.payloads("smoke")
    if not status.complete:
        print(f"FAIL: campaign incomplete: {status}", file=sys.stderr)
        return 1
    merged = adapter.merge(config, payloads)

    baseline_cfg = FaultCampaignConfig(**{
        k: tuple(v) if isinstance(v, list) else v for k, v in config.items()
    })
    baseline = run_fault_campaign(baseline_cfg)

    got = json.dumps([asdict(p) for p in merged.points], sort_keys=True)
    want = json.dumps([asdict(p) for p in baseline.points], sort_keys=True)
    if got != want:
        print("FAIL: merged service result differs from the "
              "single-process baseline", file=sys.stderr)
        return 1
    print(f"OK: {status.n_done}/{status.n_tasks} tasks; merged result "
          "bitwise-identical to the single-process baseline "
          "(after SIGKILLing a lease-holding worker)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

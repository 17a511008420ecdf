"""The benchmark's three workloads, each aimed at a different layer.

A workload is four steps, timed separately by ``worker.py``:

* ``imports`` — the modules its entry point needs (``setup.import_s``);
* ``build(seed, workdir)`` — its inputs, made from the seed alone
  (``setup.build_s``);
* ``run(inputs)`` — one call of the real entry point, serial
  (``n_jobs=1``), returning an :class:`Outcome`;
* the outcome's ``canonical`` form, whose SHA-256 is compared with the
  digest stored for the default seed in ``digests.json``.

Why these three (see README.md for the full map):

* ``fig6_mc`` — the paper's Fig. 6 Monte Carlo.  The only workload where
  the circuit stack (tech -> circuit -> wire) does the work.
* ``fault_sweep`` — a BER x protection campaign on an 8x8 mesh, fast NoC
  engine.  The fault layer (end-to-end retry bookkeeping) dominates.
* ``service_chiplet`` — a chiplet fault campaign through the service
  round trip (submit -> worker drain -> payloads -> merge).  The only
  workload on the reference engine, the workload generators,
  data-dependent payload pricing and the service lease/commit path.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

DEFAULT_SEED = 1


@dataclass
class Outcome:
    """What one repetition produced."""

    #: JSON-serialisable form of the result that the digest covers.
    canonical: Any
    #: Operations attempted / failed (dies, campaign points, task rows).
    attempted: int
    failed: int
    #: Deterministic work done, the numerator of ``work_per_s``.
    work: float
    #: Result-derived per-layer counters (see ``spans.PER_LAYER``).
    counters: dict[str, float] = field(default_factory=dict)
    #: Invariant violations found in the result.
    problems: list[str] = field(default_factory=list)


def digest(canonical: Any) -> str:
    """SHA-256 of the canonical JSON form of a result."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- fig6_mc -------------------------------------------------------------------------

#: Swings across the failure knee (straightforward design fails most dies
#: at 0.28 V, few at 0.32 V).  The seed jitters each by up to 1 mV: every
#: design and die outcome changes, the amount of work barely does (a 4 mV
#: jitter moved the cost of a repetition by ~15 % between seeds).
FIG6_SWINGS = (0.28, 0.30, 0.32)
FIG6_DIES = 24  # per (swing, design) point: 3 x 2 x 24 = 144 dies


def fig6_build(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    swings = tuple(round(s + rng.uniform(-0.001, 0.001), 4) for s in FIG6_SWINGS)
    return {"swings": swings, "n_runs": FIG6_DIES}


def fig6_run(inputs: dict) -> Outcome:
    from repro.analysis.experiments import e4_fig6_montecarlo

    result = e4_fig6_montecarlo(
        swings=inputs["swings"], n_runs=inputs["n_runs"], n_jobs=1, cache=None
    )
    return fig6_outcome(result, inputs)


def fig6_outcome(result, inputs: dict) -> Outcome:
    sweep = result.data["sweep"]
    ratio = result.data["immunity_ratio"]
    canonical = {
        "swings": [repr(p.swing) for p in sweep.points],
        "pass_fail": {
            f"{p.swing!r}/{variant}": "".join(
                "1" if run.ok else "0" for run in mc.runs
            )
            for p in sweep.points
            for variant, mc in sorted(p.results.items())
        },
        "immunity_ratio": repr(float(ratio)),
    }
    problems = []
    dies = failing = quarantined = 0
    for p in sweep.points:
        for variant, mc in p.results.items():
            seeds = [run.seed for run in mc.runs]
            if seeds != list(range(2013, 2013 + inputs["n_runs"])):
                problems.append(f"{p.swing}/{variant}: dies missing or reordered")
            dies += mc.n_runs
            failing += mc.n_failures
            quarantined += mc.n_task_failures
    if [p.swing for p in sweep.points] != list(inputs["swings"]):
        problems.append("swing points missing or reordered")
    if not float(ratio) > 0.0:
        problems.append(f"immunity ratio {float(ratio)} is not positive")
    return Outcome(
        canonical=canonical,
        attempted=dies + quarantined,
        failed=quarantined,
        work=dies,
        counters={"mc.fail_ratio": failing / dies if dies else 0.0},
        problems=problems,
    )


# --- fault_sweep ---------------------------------------------------------------------

#: The campaign seed draws the offered traffic, whose realization alone
#: moves the cost of a campaign by up to ~25 % between seeds.  The
#: benchmark seed therefore keeps the campaign seed and scales each BER
#: by up to 1 %: fault patterns and results change, the offered traffic
#: does not, and every seed measures about the same work.
CAMPAIGN_SEED = 7


def jittered_bers(bers: tuple[float, ...], seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(float(f"{b * (1 + rng.uniform(-0.01, 0.01)):.6g}") for b in bers)


#: 1e-4 is the clean regime; at 1.5e-3 end-to-end retries pile up and the
#: e2e point costs ~8x a link-level point.
FAULT_BERS = (1e-4, 1.5e-3)


def fault_build(seed: int, workdir: Path):
    from repro.fault.campaign import FaultCampaignConfig

    return FaultCampaignConfig(
        topology="mesh",
        k=8,
        injection_rate=0.05,
        pattern="uniform",
        engine="fast",
        bers=jittered_bers(FAULT_BERS, seed),
        seed=CAMPAIGN_SEED,
    )


def fault_run(config) -> Outcome:
    from repro.fault.campaign import run_fault_campaign

    return fault_outcome(run_fault_campaign(config, n_jobs=1), config)


def fault_canonical(points) -> list[dict]:
    from repro.fault.campaign import point_payload

    return [point_payload(p) for p in points]


def fault_outcome(result, config) -> Outcome:
    points = result.points
    problems = []
    expected = [(ber, protocol) for _c, ber, protocol in config.tasks()]
    if [(p.ber, p.protocol) for p in points] != expected:
        problems.append("campaign points missing or reordered")
    livelocked = sum(1 for p in points if p.livelocked)
    for p in points:
        if p.protocol in ("crc", "reroute") and p.corrupted_delivered:
            problems.append(
                f"{p.ber}/{p.protocol}: {p.corrupted_delivered} corrupted "
                "deliveries passed link-level protection"
            )
    delivered = sum(p.delivered for p in points)
    return Outcome(
        canonical=fault_canonical(points),
        attempted=len(points) + len(result.failures),
        failed=len(result.failures) + livelocked,
        work=delivered,
        counters=fault_counters(points),
        problems=problems,
    )


def fault_counters(points) -> dict[str, float]:
    delivered = sum(p.delivered for p in points)
    return {
        "fault.packet_retries": sum(p.packet_retries for p in points),
        "fault.raw_faults": sum(p.raw_faults for p in points),
        "fault.goodput_ratio": (
            sum(p.clean_delivered for p in points) / delivered if delivered else 0.0
        ),
    }


# --- service_chiplet -----------------------------------------------------------------

#: Low BERs: 8 x {none, crc} = 16 task rows.
SERVICE_BERS = (1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4)


def service_config(seed: int):
    from repro.fault.campaign import FaultCampaignConfig

    return FaultCampaignConfig(
        topology="chiplet",
        k=2,
        chiplets_x=2,
        chiplets_y=2,
        workload="bursty",
        payload_mode="random",
        coupling=True,
        protocols=("none", "crc"),
        bers=jittered_bers(SERVICE_BERS, seed),
        seed=CAMPAIGN_SEED,
    )


def service_build(seed: int, workdir: Path) -> dict:
    from repro.service import CampaignDB

    db_path = workdir / "campaigns.sqlite"
    CampaignDB(db_path).close()  # a fresh database with its schema
    return {"db_path": db_path, "config": asdict(service_config(seed))}


def service_run(inputs: dict) -> Outcome:
    from repro.service import CampaignDB, get_adapter, run_worker

    adapter = get_adapter("fault")
    db_path = inputs["db_path"]
    config = adapter.canonical_config(inputs["config"])
    tasks = [(t.key, t.index, t.spec) for t in adapter.expand(config)]
    with CampaignDB(db_path) as db:
        db.submit("bench", "fault", config, tasks)
    report = run_worker(
        db_path, worker_id="bench", campaign="bench", drain=True, poll_seconds=0.05
    )
    with CampaignDB(db_path) as db:
        payloads = db.payloads("bench")
    # merge refuses an incomplete campaign; its missing rows count as failed
    # below, and the empty result fails the digest check.
    points = ()
    if len(payloads) == len(tasks):
        points = adapter.merge(config, payloads).points

    problems = [f"task failed: {f}" for f in report.failures]
    lost_or_missing = report.lost_races + len(tasks) - len(payloads)
    counters = fault_counters(points)
    counters["service.tasks"] = report.tasks_done
    counters["service.lost_races"] = report.lost_races
    return Outcome(
        canonical=fault_canonical(points),
        attempted=len(tasks),
        failed=report.tasks_failed + lost_or_missing
        + sum(1 for p in points if p.livelocked),
        work=report.tasks_done,
        counters=counters,
        problems=problems,
    )


def service_reference(seed: int) -> str:
    """Digest of the single-process driver on the service's config: the
    merged service result must equal it bit for bit."""
    from repro.fault.campaign import run_fault_campaign

    result = run_fault_campaign(service_config(seed), n_jobs=1)
    return digest(fault_canonical(result.points))


# --- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    imports: tuple[str, ...]
    build: Callable[[int, Path], Any]
    run: Callable[[Any], Outcome]
    #: Digest of the in-process reference for a seed, where one exists.
    reference: Callable[[int], str] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig6_mc", ("repro.analysis.experiments",), fig6_build, fig6_run),
        Workload("fault_sweep", ("repro.fault.campaign",), fault_build, fault_run),
        Workload(
            "service_chiplet",
            ("repro.service", "repro.fault.campaign"),
            service_build,
            service_run,
            service_reference,
        ),
    )
}


def quiet_expected_warnings() -> None:
    """The chiplet campaign runs on the reference engine by design; the
    fallback warning it raises is expected, not news."""
    warnings.filterwarnings(
        "ignore", message=".*falling back to the reference engine"
    )

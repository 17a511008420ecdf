"""E4 — Fig. 6: Monte Carlo error probability vs swing voltage.

Regenerates the paper's 1000-run Monte Carlo comparison of the robust and
straightforward SRLR designs across swing voltages, including the ~3.7x
process-variation-immunity ratio at the selected swing.

Each run also appends a perf-trajectory record to
``benchmarks/output/BENCH_circuit_mc.json``: dies per second from a cold
attenuation-table cache, and how many table rows the run filled out of
the ``N_GRID`` rows of every table it built.
"""

from __future__ import annotations

import json
import os
import time

from conftest import FIG6_SWINGS, FULL, MC_RUNS, OUTPUT_DIR

from repro.analysis import e4_fig6_montecarlo
from repro.wire import attenuation
from repro.wire.attenuation import AttenuationTable


def test_bench_fig6_montecarlo(benchmark, save_report, monkeypatch):
    # Start cold, as a fresh process does, and keep every table the run
    # builds so its filled rows can be counted afterwards.
    attenuation._cached_table.cache_clear()
    tables: list[AttenuationTable] = []
    build = AttenuationTable.__init__

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(AttenuationTable, "__init__", recording_init)

    t0 = time.perf_counter()
    result = benchmark.pedantic(
        e4_fig6_montecarlo,
        kwargs={"swings": FIG6_SWINGS, "n_runs": MC_RUNS},
        rounds=1,
        iterations=1,
    )
    wall = time.perf_counter() - t0
    save_report("E4_fig6_montecarlo", result.text)

    dies = 2 * len(FIG6_SWINGS) * MC_RUNS
    record = {
        "kind": "fig6-montecarlo",
        "swings": list(FIG6_SWINGS),
        "dies": dies,
        "wall_s": wall,
        "dies_per_s": dies / wall,
        "tables": len(tables),
        "rows_filled": sum(t.rows_filled for t in tables),
        "rows_possible": AttenuationTable.N_GRID * len(tables),
        "host_cpus": os.cpu_count(),
        "full": FULL,
        "unix_time": round(time.time(), 1),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    trajectory_path = OUTPUT_DIR / "BENCH_circuit_mc.json"
    trajectory = (
        json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    )
    trajectory.append(record)
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")

    sweep = result.data["sweep"]
    robust = sweep.series("robust")
    straightforward = sweep.series("straightforward")
    # Error probability falls with swing (both designs).
    assert robust[-1] <= robust[0]
    # The robust design is never less reliable, and is strictly better at
    # the selected swing by a factor in the paper's band.
    assert all(r <= s + 1e-9 for r, s in zip(robust, straightforward))
    assert 2.0 <= result.data["immunity_ratio"] <= 8.0

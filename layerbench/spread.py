"""Run sets of benchmark runs and report each end-to-end metric's spread.

    python3 layerbench/spread.py --seeds 1-10 [--workloads fig6_mc,fault_sweep] [--seconds 36]

For every seed, runs ``run.py`` once per workload, rotating the workload
order from seed to seed so that a slow stretch of the host does not land
on one workload only.  For each (workload, metric) it prints the median
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, which
is what a metric's ``bound`` in ``BENCHMARK.json`` is compared against.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate()
    finally:
        # SIGTERM, not SIGKILL: run.py then stops its own repetition.
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode} on {workload} seed {seed}")
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads[i % len(workloads):] + workloads[: i % len(workloads)]
        for workload in order:
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            values_text = " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: {values_text}", flush=True)

    for workload in workloads:
        for name, series in values[workload].items():
            median, share = spread(series)
            bound = bounds.get(name, float("nan"))
            flag = "" if share < bound / 3 else "  <- above a third of its bound"
            print(f"{workload:16s} {name:12s} median {median:10.4g}  "
                  f"spread {share:6.2%}  bound {bound:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

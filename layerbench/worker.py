"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, with the BLAS/OpenMP
thread pools pinned to one thread, and reads the JSON object it prints
last.  The process sets the workload up (imports, then inputs), makes
one call of the workload's entry point, digests the result, and reports
timings, counters and its peak RSS.  With ``--trace 1`` the call runs
under the span recorder and the report carries the per-layer metrics.

    python3 layerbench/worker.py --workload fault_sweep --seed 1 \\
        --trace 0 --spawned-at <time.monotonic() of the parent> --workdir DIR

``--reference`` instead prints the digest of the workload's in-process
reference driver for the seed (``service_chiplet`` only).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from workloads import WORKLOADS, digest, quiet_expected_warnings  # noqa: E402


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python loop: a probe of host speed that
    no change to the program can move."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def table_hit_ratio() -> float:
    attenuation = sys.modules.get("repro.wire.attenuation")
    cached = getattr(attenuation, "_cached_table", None)
    if cached is None:
        return 0.0
    info = cached.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def main() -> int:
    t_main = time.monotonic()
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    quiet_expected_warnings()

    if args.reference:
        print(json.dumps({"digest": workload.reference(args.seed)}))
        return 0

    t_probe = time.monotonic()
    ref_before = reference_kernel()
    t_import = time.monotonic()
    for module in workload.imports:
        importlib.import_module(module)
    t_build = time.monotonic()
    inputs = workload.build(args.seed, args.workdir)
    t_ready = time.monotonic()
    spawned_at = t_main if args.spawned_at is None else args.spawned_at

    recorder = spans.SpanRecorder()
    if args.trace:
        recorder.install()
    t0 = time.perf_counter()
    with recorder.span(spans.ROOT):
        outcome = workload.run(inputs)
        result_digest = digest(outcome.canonical)
    wall = time.perf_counter() - t0
    recorder.uninstall()
    ref_after = reference_kernel()

    report = {
        # Process start to inputs built, less the host-speed probe.
        "setup_s": t_ready - spawned_at - (t_import - t_probe),
        "import_s": t_build - t_import,
        "build_s": t_ready - t_build,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": result_digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "work": outcome.work,
        "problems": outcome.problems,
        "reference_kernel_s": [ref_before, ref_after],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if args.trace:
        per_layer = spans.rep_metrics(recorder.spans, recorder.task_failures)
        per_layer.update(outcome.counters)
        per_layer["wire.table_hit_ratio"] = table_hit_ratio()
        report["per_layer"] = per_layer
        report["missing_targets"] = recorder.missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

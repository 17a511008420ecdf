"""Layered benchmark of the SRLR/NoC reproduction: one command, one workload.

    python3 layerbench/run.py --workload fig6_mc --seed 1 --seconds 38 --trace 0

Runs repetitions of the workload, each in a fresh single-threaded process
(``worker.py``), until ``--seconds`` have been spent (at least three
repetitions), verifies every result, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0`` — the end-to-end metrics, medians over repetitions:
  ``setup_s``, ``wall_s``, ``work_per_s``, ``peak_rss_mb``;
* ``--trace 1`` — the per-layer metrics (``spans.PER_LAYER``): traced and
  untraced repetitions alternate, per-layer values are medians over the
  traced ones, and ``trace.overhead_ratio`` is the median traced
  ``wall_s`` over the median untraced one.

A result is correct when its digest matches the digest stored for the
default seed (``digests.json``), or, for other seeds, the in-process
reference driver (``service_chiplet``) or every other repetition of the
run (the others); a mismatch, a quarantined die or point, a failed or
lost task row and a livelocked point each count as one failed operation.
Each run also appends a row with host facts and a fixed reference
kernel's timings to ``layerbench/output/runs.jsonl``, so that runs taken
on a slowed host can be identified.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: End-to-end metric names and units, as ``BENCHMARK.json`` lists them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "units/s",
    "peak_rss_mb": "MB",
}

#: Repetitions per run, at least; medians over fewer are not robust.
MIN_REPS = 3
#: Seconds one repetition may take before the run is abandoned.
REP_TIMEOUT = 120.0
DIGESTS = HERE / "digests.json"
ROWS = HERE / "output" / "runs.jsonl"


class BenchError(RuntimeError):
    """A repetition could not be run; the run prints no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str], workdir: Path) -> dict:
    """Start ``worker.py`` in a fresh process and parse its report."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    command = [
        sys.executable, str(HERE / "worker.py"), *args,
        "--workdir", str(workdir), "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition exceeded {REP_TIMEOUT:.0f} s: {args}")
    finally:
        # Also on SIGTERM/Ctrl-C: never leave a repetition running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition exited {proc.returncode}: {args}")
    return json.loads(lines[-1])


def expected_digest(workload: str, seed: int, scratch: Path) -> str | None:
    """The digest a correct result must have, or None (compare the
    repetitions with each other)."""
    stored = json.loads(DIGESTS.read_text())[workload]
    if stored["seed"] == seed:
        return stored["sha256"]
    if WORKLOADS[workload].reference is not None:
        args = ["--workload", workload, "--seed", str(seed), "--reference"]
        return run_child(args, scratch)["digest"]
    return None


def run_reps(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    """Repetitions until ``seconds`` are spent; traced runs alternate
    traced and untraced repetitions, starting traced."""
    reports = []
    durations = []
    start = time.monotonic()
    while True:
        traced = trace and len(reports) % 2 == 0
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        t0 = time.monotonic()
        args = [
            "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        ]
        report = run_child(args, workdir)
        shutil.rmtree(workdir)
        durations.append(time.monotonic() - t0)
        report["traced"] = traced
        reports.append(report)
        spent = time.monotonic() - start
        if len(reports) >= MIN_REPS and spent + statistics.median(durations) > seconds:
            return reports


def verify(reports: list[dict], expected: str | None) -> tuple[int, int, list[str]]:
    expected = expected or reports[0]["digest"]
    attempted = failed = 0
    problems = []
    for i, report in enumerate(reports):
        attempted += report["attempted"]
        failed += report["failed"]
        problems += [f"rep {i}: {p}" for p in report["problems"]]
        if report["digest"] != expected:
            failed += 1
            problems.append(
                f"rep {i}: result digest {report['digest'][:16]} != {expected[:16]}"
            )
    return attempted, failed, problems


def summarize(reports: list[dict], trace: bool) -> dict[str, dict]:
    median = statistics.median
    if not trace:
        values = {
            "setup_s": median(r["setup_s"] for r in reports),
            "wall_s": median(r["wall_s"] for r in reports),
            "work_per_s": median(r["work"] / r["wall_s"] for r in reports),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in reports),
        }
        units = END_TO_END
    else:
        traced = [r for r in reports if r["traced"]]
        untraced = [r for r in reports if not r["traced"]]
        values = {
            name: median(r["per_layer"].get(name, 0.0) for r in traced)
            for name in PER_LAYER
        }
        values["setup.import_s"] = median(r["import_s"] for r in reports)
        values["setup.build_s"] = median(r["build_s"] for r in reports)
        values["trace.overhead_ratio"] = median(
            r["wall_s"] for r in traced
        ) / median(r["wall_s"] for r in untraced)
        units = PER_LAYER
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running repetition is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    host = host_facts()
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch))
    try:
        expected = expected_digest(args.workload, args.seed, scratch)
        reports = run_reps(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    except BenchError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, problems = verify(reports, expected)
    for problem in problems:
        print(f"layerbench: {problem}", file=sys.stderr)
    metrics = summarize(reports, bool(args.trace))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    host["numpy"] = reports[0]["numpy"]
    row = {
        "time": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "reference_kernel_s": [r["reference_kernel_s"] for r in reports],
        "reps": [
            {k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "traced")}
            for r in reports
        ],
        **result,
    }
    ROWS.parent.mkdir(exist_ok=True)
    with ROWS.open("a") as f:
        f.write(json.dumps(row) + "\n")
    print("host " + json.dumps({**host, "reference_kernel_s": row["reference_kernel_s"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest layerbench -q

The two end-to-end runs take about a minute together.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, digest, fault_canonical  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    tree = [
        S("bench.rep", 0.0, 10.0, -1),
        S("fault.point", 1.0, 5.0, 0),
        S("noc.step_fast", 2.0, 4.0, 1),
        S("fault.begin_cycle", 2.5, 3.0, 2),
        S("fault.point", 6.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.5, 0.5, 3.0])
    metrics = spans.rep_metrics(tree)
    assert metrics["layer.fault_s"] == pytest.approx(5.5)
    assert metrics["layer.noc_s"] == pytest.approx(1.5)
    assert metrics["layer.bench_s"] == pytest.approx(3.0)
    # Layer self times partition the root span exactly.
    layers = sum(metrics[f"layer.{layer}_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(metrics["trace.wall_s"])
    assert metrics["fault.point_s_max"] == pytest.approx(4.0)
    assert metrics["noc.fast_cycle_share"] == 1.0


def test_recorder_links_wrapped_calls_to_their_caller():
    recorder = spans.SpanRecorder()

    def leaf(x):
        return [x]

    traced_leaf = recorder.wrap(leaf, "workload.traffic")

    def outer():
        return traced_leaf(1) + traced_leaf(2)

    traced_outer = recorder.wrap(outer, "noc.step_fast")
    with recorder.span(spans.ROOT):
        assert traced_outer() == [1, 2]
    names = [(s.name, s.parent, s.n) for s in recorder.spans]
    assert names == [
        ("bench.rep", -1, 0),
        ("noc.step_fast", 0, 0),
        ("workload.traffic", 1, 1),
        ("workload.traffic", 1, 1),
    ]
    metrics = spans.rep_metrics(recorder.spans)
    assert metrics["noc.cycles"] == 1
    assert metrics["workload.packets_offered"] == 2


def test_install_traces_callers_that_imported_the_function_by_name():
    from repro.circuit import link
    from repro.wire import attenuation

    original = attenuation.attenuation_table
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert link.attenuation_table is not original
        assert attenuation.attenuation_table is link.attenuation_table
    finally:
        recorder.uninstall()
    assert link.attenuation_table is original
    assert recorder.missing == []


def _tiny_campaign():
    from repro.fault.campaign import FaultCampaignConfig, run_fault_campaign

    config = FaultCampaignConfig(
        k=3, warmup=10, measure=40, bers=(1e-3,), protocols=("none", "e2e")
    )
    return run_fault_campaign(config).points


def test_digest_check_rejects_a_perturbed_result():
    canonical = fault_canonical(_tiny_campaign())
    expected = digest(canonical)
    perturbed = json.loads(json.dumps(canonical))
    perturbed[1]["delivered"] += 1
    assert digest(perturbed) != expected

    def report(canon):
        return {"attempted": 2, "failed": 0, "problems": [], "digest": digest(canon)}

    attempted, failed, problems = run.verify([report(canonical)] * 3, expected)
    assert (attempted, failed, problems) == (6, 0, [])
    attempted, failed, problems = run.verify(
        [report(canonical), report(perturbed), report(canonical)], expected
    )
    assert failed == 1 and len(problems) == 1
    # Without a stored digest the repetitions must agree with each other.
    _, failed, _ = run.verify([report(canonical), report(perturbed)], None)
    assert failed == 1


def test_every_workload_has_a_stored_digest_at_the_default_seed():
    stored = json.loads(run.DIGESTS.read_text())
    assert set(stored) == set(WORKLOADS)
    for entry in stored.values():
        assert entry["seed"] == DEFAULT_SEED
        assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"])


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == spans.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name in [*e2e, *per_layer, *WORKLOADS]:
        assert NAME.match(name), name


def _bench(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_result_names_every_metric(trace, section):
    proc = _bench("fault_sweep", trace, HERE.parent)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["noc.fast_cycle_share"]["value"] == 1.0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("output", ".work", "__pycache__"))
    proc = _bench("fault_sweep", 0, tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
